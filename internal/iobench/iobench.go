// Package iobench is the benchmark suite the paper's conclusion promises
// to derive from its characterizations: parameterized I/O kernels
// distilled from the observed application phases — compulsory
// initialization reads, staging writes, strided reloads, checkpoint
// bursts, and result funnels — each runnable across access modes, node
// counts, and machine configurations, reporting achieved bandwidth and
// operation latency.
//
// Where the characterization study asks "what do applications do?", the
// suite asks the follow-up the authors planned: "how does a given file
// system configuration serve each canonical pattern?"
package iobench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/faults"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/stats"
	"paragonio/internal/workload"
)

// Kernel identifies one canonical access pattern from the study.
type Kernel int

const (
	// CompulsoryRead: all nodes need the same initialization data
	// (ESCAT/PRISM phase one).
	CompulsoryRead Kernel = iota
	// StagingWrite: every node writes interleaved slots of a scratch
	// file in compute/write cycles (ESCAT phase two).
	StagingWrite
	// StridedReload: nodes read disjoint fixed-size records sweeping
	// the file (ESCAT phase three).
	StridedReload
	// Checkpoint: one node periodically dumps the global state
	// (PRISM phase two).
	Checkpoint
	// ResultFunnel: one node writes many small result records
	// (ESCAT phase four).
	ResultFunnel
	numKernels
)

var kernelNames = [...]string{
	CompulsoryRead: "compulsory-read",
	StagingWrite:   "staging-write",
	StridedReload:  "strided-reload",
	Checkpoint:     "checkpoint",
	ResultFunnel:   "result-funnel",
}

// String returns the kernel's slug.
func (k Kernel) String() string {
	if k < 0 || int(k) >= len(kernelNames) {
		return fmt.Sprintf("kernel(%d)", int(k))
	}
	return kernelNames[k]
}

// Kernels lists all kernels.
func Kernels() []Kernel {
	out := make([]Kernel, numKernels)
	for i := range out {
		out[i] = Kernel(i)
	}
	return out
}

// Params configures one benchmark run.
type Params struct {
	Kernel  Kernel
	Mode    pfs.Mode // access mode under test
	Nodes   int      // compute nodes
	Request int64    // request size in bytes
	Volume  int64    // total bytes the kernel moves
	// Cycles applies to StagingWrite and Checkpoint: how many rounds
	// the volume is split into (default 8).
	Cycles int
	// Compute is per-cycle computation between I/O rounds (default 0:
	// pure I/O benchmark).
	Compute time.Duration
	// Machine overrides (zero values = the paper's machine).
	IONodes    int
	StripeUnit int64
	Seed       int64
	// Tiers configures the what-if cache hierarchy (cache.Tiers):
	// Tiers.IONode the per-I/O-node buffer cache, Tiers.Client the
	// lease-coherent per-compute-node cache.
	Tiers cache.Tiers
	// Faults is the injected fault plan (see internal/faults); the zero
	// value runs the healthy machine.
	Faults faults.Plan
}

// withDefaults validates and fills defaults.
func (p Params) withDefaults() (Params, error) {
	if p.Kernel < 0 || p.Kernel >= numKernels {
		return p, fmt.Errorf("iobench: invalid kernel %d", int(p.Kernel))
	}
	if p.Nodes <= 0 {
		return p, fmt.Errorf("iobench: Nodes = %d", p.Nodes)
	}
	if p.Request <= 0 {
		return p, fmt.Errorf("iobench: Request = %d", p.Request)
	}
	if p.Volume <= 0 {
		return p, fmt.Errorf("iobench: Volume = %d", p.Volume)
	}
	if (p.Kernel == Checkpoint || p.Kernel == ResultFunnel) && p.Mode.Collective() {
		return p, fmt.Errorf("iobench: %s is a single-writer kernel; collective mode %s does not apply",
			p.Kernel, p.Mode)
	}
	if p.Volume < p.Request {
		p.Volume = p.Request
	}
	if p.Cycles <= 0 {
		p.Cycles = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p, nil
}

// Result is one benchmark outcome.
type Result struct {
	Params   Params
	Wall     time.Duration // virtual completion time
	IOTime   time.Duration // summed operation time across nodes
	Ops      int           // data operations issued
	Bytes    int64         // payload bytes moved
	TraceLen int
	// P50Op and P95Op are data-operation duration percentiles
	// (queueing included).
	P50Op, P95Op time.Duration
	// Label names the sweep rung the result ran under ("" for a bare
	// Run).
	Label string
	// Cache aggregates the I/O-node cache tier's counters across all
	// I/O nodes (zero value when the tier is off) — the flush-policy
	// sweep reads stall and flush counts from here.
	Cache cache.Stats
	// Log holds the host-side log tier's counters (zero value when the
	// tier is off) — the log-tier sweep reads append, drain, and stall
	// counts from here.
	Log cache.LogStats
	// Fault-plane counters (all zero on a healthy run): Degraded is
	// array requests served in RAID-3 reconstruction mode, Rerouted is
	// requests redirected away from a crashed I/O node, Recalls is
	// lease recalls delivered (a flapping client inflates it).
	Degraded uint64
	Rerouted uint64
	Recalls  uint64
}

// BandwidthMBs returns achieved aggregate bandwidth in MB/s of virtual
// time.
func (r Result) BandwidthMBs() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Wall.Seconds()
}

// MeanOpMillis returns the mean data-operation duration in milliseconds
// (queueing included).
func (r Result) MeanOpMillis() float64 {
	if r.Ops == 0 {
		return 0
	}
	return r.IOTime.Seconds() * 1000 / float64(r.Ops)
}

// Run executes the benchmark on a fresh platform.
func Run(p Params) (*Result, error) {
	return RunContext(context.Background(), p)
}

// RunContext is Run with cancellation: when ctx is cancelled or times
// out mid-run, the simulation aborts promptly (between event batches),
// all simulated-process goroutines exit, and the context's error is
// returned — so an abandoned caller stops burning CPU.
func RunContext(ctx context.Context, p Params) (*Result, error) {
	out, _, err := runTraced(ctx, p)
	return out, err
}

// runTraced is RunContext that also returns the platform result, trace
// included, for the advisor sweep (classification needs the events, not
// just the counts).
func runTraced(ctx context.Context, p Params) (*Result, *core.Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{
		Nodes:      p.Nodes,
		Seed:       p.Seed,
		IONodes:    p.IONodes,
		StripeUnit: p.StripeUnit,
		Tiers:      p.Tiers,
		Faults:     p.Faults,
	}
	res, err := core.RunContext(ctx, cfg, "iobench", p.Kernel.String(),
		func(m *workload.Machine, seed int64) error {
			return install(m, p, seed)
		})
	if err != nil {
		return nil, nil, err
	}
	out := &Result{Params: p, Wall: res.Exec, TraceLen: res.Trace.Len(),
		Cache: res.CacheTotals(), Log: res.Log,
		Rerouted: res.Rerouted, Recalls: res.Client.Recalls}
	for _, ds := range res.IONodes {
		out.Degraded += ds.Degraded
	}
	var durs []float64
	for _, ev := range res.Trace.Events() {
		switch ev.Op {
		case pablo.OpRead, pablo.OpWrite:
			if ev.Size > 0 {
				out.Ops++
				out.Bytes += ev.Size
				out.IOTime += ev.Duration
				durs = append(durs, float64(ev.Duration))
			}
		}
	}
	if len(durs) > 0 {
		sort.Float64s(durs)
		out.P50Op = time.Duration(stats.Percentile(durs, 50))
		out.P95Op = time.Duration(stats.Percentile(durs, 95))
	}
	return out, res, nil
}

// install wires the kernel's script onto the machine.
func install(m *workload.Machine, p Params, seed int64) error {
	ids := make([]int, p.Nodes)
	for i := range ids {
		ids[i] = i
	}
	group, err := m.FS.NewGroup(ids)
	if err != nil {
		return err
	}
	all := m.NewCollective("iobench", p.Nodes)
	switch p.Kernel {
	case CompulsoryRead:
		m.FS.CreateFile("bench/input", p.Volume)
	case StridedReload:
		m.FS.CreateFile("bench/data", p.Volume)
	}
	m.SpawnNodes(seed, func(n *workload.Node) {
		switch p.Kernel {
		case CompulsoryRead:
			compulsoryRead(n, p, group)
		case StagingWrite:
			stagingWrite(n, p, group, all)
		case StridedReload:
			stridedReload(n, p, group)
		case Checkpoint:
			checkpoint(n, p, all)
		case ResultFunnel:
			resultFunnel(n, p, all)
		}
	})
	return nil
}

// open opens the kernel's file in the mode under test, collectively when
// the mode's data operations require it (and always via gopen, so the
// benchmark measures the data path rather than open serialization).
func open(n *workload.Node, g *pfs.Group, file string, mode pfs.Mode) *pfs.Handle {
	h, err := g.Gopen(n.P, n.ID, file, mode)
	if err != nil {
		panic(err)
	}
	return h
}

// compulsoryRead: every node consumes the whole input. Per-process-
// pointer modes read it independently; shared-pointer modes read it
// once collectively.
func compulsoryRead(n *workload.Node, p Params, g *pfs.Group) {
	h := open(n, g, "bench/input", p.Mode)
	h.SetBuffering(false)
	rounds := int(p.Volume / p.Request)
	for r := 0; r < rounds; r++ {
		if _, err := h.Read(n.P, p.Request); err != nil {
			panic(err)
		}
	}
	if err := h.Close(n.P); err != nil {
		panic(err)
	}
}

// stagingWrite: interleaved node-strided slot writes in synchronized
// cycles, ESCAT phase-two style. Collective modes write records instead.
func stagingWrite(n *workload.Node, p Params, g *pfs.Group, all *workload.Collective) {
	h := open(n, g, "bench/staging", p.Mode)
	perNode := p.Volume / int64(p.Nodes)
	writesPerCycle := perNode / p.Request / int64(p.Cycles)
	if writesPerCycle < 1 {
		writesPerCycle = 1
	}
	slot := 0
	for cyc := 0; cyc < p.Cycles; cyc++ {
		if p.Compute > 0 {
			all.BarrierRounds(n, 1, p.Compute, p.Compute/4)
		} else {
			all.Barrier(n)
		}
		for w := int64(0); w < writesPerCycle; w++ {
			if !p.Mode.Collective() && !p.Mode.SharedPointer() {
				off := (int64(slot)*int64(p.Nodes) + int64(n.ID)) * p.Request
				if err := h.Seek(n.P, off); err != nil {
					panic(err)
				}
			}
			if _, err := h.Write(n.P, p.Request); err != nil {
				panic(err)
			}
			slot++
		}
	}
	if err := h.Close(n.P); err != nil {
		panic(err)
	}
}

// stridedReload: the group sweeps the file in fixed-size records.
// Non-collective modes emulate the sweep with explicit seeks.
func stridedReload(n *workload.Node, p Params, g *pfs.Group) {
	h := open(n, g, "bench/data", p.Mode)
	h.SetBuffering(false)
	records := p.Volume / p.Request
	rounds := int((records + int64(p.Nodes) - 1) / int64(p.Nodes))
	for r := 0; r < rounds; r++ {
		if !p.Mode.Collective() && !p.Mode.SharedPointer() {
			rec := int64(r)*int64(p.Nodes) + int64(n.ID)
			if rec >= records {
				break
			}
			if err := h.Seek(n.P, rec*p.Request); err != nil {
				panic(err)
			}
		}
		if _, err := h.Read(n.P, p.Request); err != nil {
			panic(err)
		}
	}
	if err := h.Close(n.P); err != nil {
		panic(err)
	}
}

// checkpoint: all nodes compute; node zero periodically dumps the
// volume in request-sized records (PRISM phase two).
func checkpoint(n *workload.Node, p Params, all *workload.Collective) {
	var h *pfs.Handle
	if n.ID == 0 {
		var err error
		h, err = n.M.FS.Open(n.P, 0, "bench/chk", p.Mode)
		if err != nil {
			panic(err)
		}
	}
	perCheckpoint := p.Volume / int64(p.Cycles) / p.Request
	if perCheckpoint < 1 {
		perCheckpoint = 1
	}
	for cyc := 0; cyc < p.Cycles; cyc++ {
		if p.Compute > 0 {
			all.BarrierRounds(n, 1, p.Compute, p.Compute/4)
		} else {
			all.Barrier(n)
		}
		if n.ID != 0 {
			continue
		}
		// Shared-pointer modes (M_LOG) append; the others overwrite the
		// checkpoint region.
		if !p.Mode.SharedPointer() {
			if err := h.Seek(n.P, 0); err != nil {
				panic(err)
			}
		}
		for w := int64(0); w < perCheckpoint; w++ {
			if _, err := h.Write(n.P, p.Request); err != nil {
				panic(err)
			}
		}
	}
	if n.ID == 0 {
		if err := h.Close(n.P); err != nil {
			panic(err)
		}
	}
	all.Barrier(n)
}

// resultFunnel: node zero writes the whole volume in small records while
// the others wait (ESCAT phase four).
func resultFunnel(n *workload.Node, p Params, all *workload.Collective) {
	if n.ID == 0 {
		h, err := n.M.FS.Open(n.P, 0, "bench/out", p.Mode)
		if err != nil {
			panic(err)
		}
		writes := p.Volume / p.Request
		for w := int64(0); w < writes; w++ {
			if _, err := h.Write(n.P, p.Request); err != nil {
				panic(err)
			}
		}
		if err := h.Close(n.P); err != nil {
			panic(err)
		}
	}
	all.Barrier(n)
}
