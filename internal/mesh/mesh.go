// Package mesh models the Intel Paragon XP/S interconnect: a 2-D mesh of
// nodes with dimension-ordered (X then Y) wormhole routing. The model
// yields per-message transfer times from software overhead, per-hop
// latency, and link bandwidth, plus costs for the collective patterns the
// applications use (binomial-tree broadcast, global barrier).
//
// The Caltech machine in the paper is a 16x32 mesh (512 nodes) with 16
// I/O nodes; DefaultConfig reflects published Paragon XP/S figures.
package mesh

import (
	"fmt"
	"math/bits"
	"time"
)

// Config holds the interconnect parameters.
type Config struct {
	Rows, Cols int           // mesh dimensions; Rows*Cols nodes
	SWOverhead time.Duration // per-message software send+receive cost
	PerHop     time.Duration // per-hop router latency
	Bandwidth  float64       // link bandwidth, bytes/second
}

// DefaultConfig returns the Caltech Paragon XP/S configuration used in the
// paper: a 16x32 mesh. Latency and bandwidth reflect
// published OSF/1 NX message-passing figures (~60 us latency, ~80 MB/s
// realizable point-to-point bandwidth).
func DefaultConfig() Config {
	return Config{
		Rows:       16,
		Cols:       32,
		SWOverhead: 60 * time.Microsecond,
		PerHop:     200 * time.Nanosecond,
		Bandwidth:  80e6,
	}
}

// Mesh is an immutable interconnect model.
type Mesh struct {
	cfg Config
}

// New validates cfg and returns a mesh model.
func New(cfg Config) (*Mesh, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("mesh: invalid dimensions %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("mesh: bandwidth must be positive, got %g", cfg.Bandwidth)
	}
	if cfg.SWOverhead < 0 || cfg.PerHop < 0 {
		return nil, fmt.Errorf("mesh: negative latency parameter")
	}
	return &Mesh{cfg: cfg}, nil
}

// Config returns the mesh's configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Nodes returns the total number of mesh positions.
func (m *Mesh) Nodes() int { return m.cfg.Rows * m.cfg.Cols }

// Coord maps a compute-node index (row-major) to mesh coordinates.
func (m *Mesh) Coord(node int) (row, col int) {
	return node / m.cfg.Cols, node % m.cfg.Cols
}

// IONodeCoord returns the mesh coordinates of I/O node io (0-based). I/O
// nodes fill the last column, one per row from the top; configurations
// with more I/O nodes than rows (scaled-up machines) continue into the
// next-to-last column, and so on — the Intel mesh's dedicated-I/O-column
// layout extended to multiple columns.
func (m *Mesh) IONodeCoord(io int) (row, col int) {
	return io % m.cfg.Rows, m.cfg.Cols - 1 - io/m.cfg.Rows
}

// Hops returns the dimension-ordered routing distance between two
// coordinates.
func (m *Mesh) Hops(r1, c1, r2, c2 int) int {
	return abs(r1-r2) + abs(c1-c2)
}

// Transfer returns the time to move size bytes between two compute nodes.
func (m *Mesh) Transfer(from, to, size int64) time.Duration {
	if from == to {
		// Local copy: software overhead plus a memory-speed copy
		// (approximated as 4x link bandwidth).
		return m.cfg.SWOverhead/2 + bwTime(float64(size), m.cfg.Bandwidth*4)
	}
	r1, c1 := m.Coord(int(from))
	r2, c2 := m.Coord(int(to))
	hops := m.Hops(r1, c1, r2, c2)
	return m.cfg.SWOverhead + time.Duration(hops)*m.cfg.PerHop +
		bwTime(float64(size), m.cfg.Bandwidth)
}

// TransferToIONode returns the time to move size bytes between compute
// node `node` and I/O node `io` (either direction).
func (m *Mesh) TransferToIONode(node, io int, size int64) time.Duration {
	r1, c1 := m.Coord(node)
	r2, c2 := m.IONodeCoord(io)
	hops := m.Hops(r1, c1, r2, c2)
	return m.cfg.SWOverhead + time.Duration(hops)*m.cfg.PerHop +
		bwTime(float64(size), m.cfg.Bandwidth)
}

// Broadcast returns the time for one node to broadcast size bytes to n-1
// others via a binomial tree: ceil(log2 n) pipelined stages, each a full
// message transfer at the mesh's average hop distance.
func (m *Mesh) Broadcast(n int, size int64) time.Duration {
	if n <= 1 {
		return 0
	}
	stages := log2ceil(n)
	per := m.cfg.SWOverhead + time.Duration(m.avgHops())*m.cfg.PerHop +
		bwTime(float64(size), m.cfg.Bandwidth)
	return time.Duration(stages) * per
}

// Barrier returns the cost of a global synchronization among n nodes:
// a dissemination barrier of ceil(log2 n) small-message rounds.
func (m *Mesh) Barrier(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	per := m.cfg.SWOverhead + time.Duration(m.avgHops())*m.cfg.PerHop
	return time.Duration(log2ceil(n)) * per
}

// AllReduce returns the cost of a combining all-reduce among n nodes
// (size bytes of payload per stage): recursive doubling, 2*ceil(log2 n)
// message stages — the per-step synchronization pattern of iterative
// solvers like PRISM's.
func (m *Mesh) AllReduce(n int, size int64) time.Duration {
	if n <= 1 {
		return 0
	}
	per := m.cfg.SWOverhead + time.Duration(m.avgHops())*m.cfg.PerHop +
		bwTime(float64(size), m.cfg.Bandwidth)
	return 2 * time.Duration(log2ceil(n)) * per
}

// Gather returns the time for n-1 nodes to send size bytes each to a
// root: a binomial tree where the root's inbound link is the bottleneck
// for the aggregate payload.
func (m *Mesh) Gather(n int, size int64) time.Duration {
	if n <= 1 {
		return 0
	}
	tree := time.Duration(log2ceil(n)) *
		(m.cfg.SWOverhead + time.Duration(m.avgHops())*m.cfg.PerHop)
	payload := bwTime(float64(size)*float64(n-1), m.cfg.Bandwidth)
	return tree + payload
}

// avgHops is the mean dimension-ordered distance between two uniformly
// random mesh positions: (Rows + Cols) / 3.
func (m *Mesh) avgHops() int {
	h := (m.cfg.Rows + m.cfg.Cols) / 3
	if h < 1 {
		h = 1
	}
	return h
}

func bwTime(bytes, bw float64) time.Duration {
	return time.Duration(bytes / bw * float64(time.Second))
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
