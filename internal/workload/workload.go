// Package workload provides the building blocks for expressing
// application I/O scripts against the simulated machine: per-node
// processes with deterministic pseudo-randomness, compute delays,
// message-passing collectives (broadcast/gather/barrier/all-reduce, and
// rounds of compute then barrier or all-reduce) priced by the
// mesh model, phase tracking for per-phase analysis, and request-size
// distributions for synthetic workload generation.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/mesh"
	"paragonio/internal/pfs"
	"paragonio/internal/sim"
)

// Machine bundles the simulated platform: kernel, interconnect and file
// system, plus the number of compute nodes the application uses.
type Machine struct {
	K     *sim.Kernel
	Mesh  *mesh.Mesh
	FS    *pfs.FileSystem
	Nodes int

	phases  []analysis.PhaseWindow
	current string
	started time.Duration
}

// NewMachine wires a machine over an existing kernel, mesh and file
// system. nodes must be positive.
func NewMachine(k *sim.Kernel, m *mesh.Mesh, fs *pfs.FileSystem, nodes int) (*Machine, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("workload: need at least one node, got %d", nodes)
	}
	return &Machine{K: k, Mesh: m, FS: fs, Nodes: nodes}, nil
}

// Node is the per-process context handed to node scripts.
type Node struct {
	M   *Machine
	P   *sim.Proc
	ID  int
	RNG *rand.Rand

	// The compute time of the node's next collective round (rounds):
	// draw is drawCompute, bound once, and compute and jitter are its
	// arguments for the current Rounds call.
	draw            func() time.Duration
	compute, jitter time.Duration
}

// SpawnNodes starts one process per node running body. Each node gets a
// deterministic PRNG derived from seed and its id. Call before K.Run().
func (m *Machine) SpawnNodes(seed int64, body func(n *Node)) {
	for i := 0; i < m.Nodes; i++ {
		i := i
		m.K.Spawn(fmt.Sprintf("node-%d", i), func(p *sim.Proc) {
			body(&Node{M: m, P: p, ID: i, RNG: rand.New(rand.NewSource(seed + int64(i)*7919))})
		})
	}
}

// BeginPhase marks (from node 0's perspective) the start of a named
// application phase; the previous phase, if any, is closed.
func (m *Machine) BeginPhase(name string) {
	now := m.K.Now()
	if m.current != "" {
		m.phases = append(m.phases, analysis.PhaseWindow{Name: m.current, Start: m.started, End: now})
	}
	m.current = name
	m.started = now
}

// EndPhases closes the open phase at the current time.
func (m *Machine) EndPhases() {
	if m.current != "" {
		m.phases = append(m.phases, analysis.PhaseWindow{Name: m.current, Start: m.started, End: m.K.Now()})
		m.current = ""
	}
}

// Phases returns the recorded phase windows.
func (m *Machine) Phases() []analysis.PhaseWindow {
	return append([]analysis.PhaseWindow(nil), m.phases...)
}

// ModeRow is one phase's row of a version's mode table (the paper's
// Tables 1 and 4): which nodes do the phase's I/O, and in which access
// modes.
type ModeRow struct {
	Phase    string
	Activity string
	Mode     string
}

// Compute advances the node's virtual time by d — modeling computation
// between I/O calls.
func (n *Node) Compute(d time.Duration) { n.P.Wait(d) }

// ComputeJitter advances by d plus a uniformly random extra in
// [0, jitter) — the load imbalance that turns into synchronization skew
// at barriers and collective I/O.
func (n *Node) ComputeJitter(d, jitter time.Duration) { n.P.Wait(n.jittered(d, jitter)) }

// jittered draws the duration ComputeJitter(d, jitter) computes for.
func (n *Node) jittered(d, jitter time.Duration) time.Duration {
	if jitter > 0 {
		d += time.Duration(n.RNG.Int63n(int64(jitter)))
	}
	return d
}

// drawCompute draws the compute time of the node's next collective round.
func (n *Node) drawCompute() time.Duration { return n.jittered(n.compute, n.jitter) }

// Collective is a message-passing synchronization domain over a fixed
// set of nodes (a communicator, in later MPI terms).
type Collective struct {
	m   *Machine
	n   int
	bar *sim.Barrier
}

// NewCollective creates a collective domain of size n.
func (m *Machine) NewCollective(name string, n int) *Collective {
	return &Collective{m: m, n: n, bar: sim.NewBarrier(m.K, name, n)}
}

// Barrier synchronizes all members and charges the mesh barrier cost.
func (c *Collective) Barrier(n *Node) {
	c.bar.AwaitThen(n.P, c.m.Mesh.Barrier(c.n))
}

// Broadcast synchronizes the members and distributes size bytes from
// root to all: every member pays the binomial-tree broadcast time.
// (The ESCAT versions B/C "node zero reads and broadcasts" pattern.)
func (c *Collective) Broadcast(n *Node, root int, size int64) {
	c.bar.AwaitThen(n.P, c.m.Mesh.Broadcast(c.n, size))
}

// BarrierRounds runs rounds compute-and-synchronize rounds: each is
// ComputeJitter(d, jitter) followed by Barrier. The run loop takes every
// step of the rounds in the node's place (sim.Barrier.Rounds), so the
// node is resumed once, after the last; rounds = 1 is one step of a
// loop that does other work between rounds.
func (c *Collective) BarrierRounds(n *Node, rounds int, d, jitter time.Duration) {
	c.rounds(n, rounds, d, jitter, c.m.Mesh.Barrier(c.n))
}

// AllReduceRounds runs rounds solver steps: each is ComputeJitter(d,
// jitter), then synchronizing the members for a combining reduction of
// size bytes (the per-step solver synchronization both applications'
// compute phases perform). The rounds run as BarrierRounds' do.
func (c *Collective) AllReduceRounds(n *Node, rounds int, d, jitter time.Duration, size int64) {
	c.rounds(n, rounds, d, jitter, c.m.Mesh.AllReduce(c.n, size))
}

// rounds runs n's collective rounds on c's barrier, each paying cost
// after the release.
func (c *Collective) rounds(n *Node, rounds int, d, jitter, cost time.Duration) {
	if n.draw == nil {
		n.draw = n.drawCompute
	}
	n.compute, n.jitter = d, jitter
	c.bar.Rounds(n.P, rounds, n.draw, cost)
}

// Gather synchronizes the members and collects size bytes from each
// non-root member at the root: the root pays the full gather time,
// senders pay one transfer. (The ESCAT version A "node zero collects the
// quadrature data" pattern.)
func (c *Collective) Gather(n *Node, root int, size int64) {
	var d time.Duration
	if n.ID == root {
		d = c.m.Mesh.Gather(c.n, size)
	} else {
		d = c.m.Mesh.Transfer(int64(n.ID), int64(root), size)
	}
	c.bar.AwaitThen(n.P, d)
}

// Choice yields one of a weighted set of sizes — the natural encoding of
// the paper's multi-modal request populations ("four different request
// sizes", "97% below 2 KB plus a few 128 KB").
type Choice struct {
	Sizes   []int64
	Weights []float64
}

// Next draws one size. It panics if the choice is empty or malformed.
func (c Choice) Next(rng *rand.Rand) int64 {
	if len(c.Sizes) == 0 || len(c.Sizes) != len(c.Weights) {
		panic("workload: malformed Choice")
	}
	var total float64
	for _, w := range c.Weights {
		if w < 0 {
			panic("workload: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("workload: zero total weight")
	}
	x := rng.Float64() * total
	for i, w := range c.Weights {
		x -= w
		if x < 0 {
			return c.Sizes[i]
		}
	}
	return c.Sizes[len(c.Sizes)-1]
}
