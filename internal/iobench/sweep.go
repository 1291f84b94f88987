package iobench

import (
	"context"
	"fmt"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/faults"
	"paragonio/internal/pfs"
	"paragonio/internal/policy"
	"paragonio/internal/report"
)

// ModesFor returns the access modes meaningfully comparable for a
// kernel (single-writer kernels exclude collective modes).
func ModesFor(k Kernel) []pfs.Mode {
	switch k {
	case Checkpoint, ResultFunnel:
		return []pfs.Mode{pfs.MUnix, pfs.MAsync, pfs.MLog}
	default:
		return []pfs.Mode{pfs.MUnix, pfs.MAsync, pfs.MRecord, pfs.MGlobal, pfs.MSync, pfs.MLog}
	}
}

// Rung is one point of a ladder: the label its result carries and the
// change it makes to the sweep's base parameters. Apply runs on a copy
// of the base, so it assigns fields and never mutates what they point
// to.
type Rung struct {
	Label string
	Apply func(*Params)
}

// Column is one column of a sweep table: its header and how a result
// renders in it.
type Column = report.Column[*Result]

// Sweep is one registered ladder: the id `iobench -sweep` names it by,
// the rungs it walks from a base configuration, and the columns of its
// table.
type Sweep struct {
	ID string
	// Rungs returns the ladder for a base configuration. It is nil for
	// the advisor, whose second run depends on the first run's trace.
	Rungs   func(base Params) []Rung
	Columns []Column
	run     func(base Params) ([]*Result, error)
}

// sweeps is the ladder registry, in the order `iobench -sweep` lists its
// ids. The CLI and the flushpolicy, faults and logtier experiments all
// resolve their ladders here.
//
// The logtier ladder is the kernel-scale one: its write-behind rungs
// hold the I/O-node cache at 2 MB with a 50 ms flush deadline, so a
// checkpoint burst overruns it — the regime the log tier is built for.
// The experiments package's application-scale log ladder stacks the log
// on the 32 MB write-behind cache instead, the pairing the advisor emits
// for read-back workloads, where drained blocks stay resident. The two
// feed different pinned results (the burst tables vs the read-back race
// and the advisor's oracle pool), so they differ on purpose.
var sweeps = []Sweep{
	{ID: "modes", Columns: standardCols, Rungs: func(base Params) []Rung {
		var rungs []Rung
		for _, m := range ModesFor(base.Kernel) {
			rungs = append(rungs, Rung{m.String(), func(p *Params) { p.Mode = m }})
		}
		return rungs
	}},
	{ID: "request", Columns: standardCols, Rungs: func(Params) []Rung {
		return requestRungs(4<<10, 16<<10, 64<<10, 128<<10, 512<<10)
	}},
	{ID: "ionodes", Columns: standardCols, Rungs: func(Params) []Rung {
		return ioNodeRungs(2, 4, 8, 16, 32)
	}},
	{ID: "cache", Columns: standardCols, Rungs: cacheRungs},
	{ID: "clientcache", Columns: standardCols, Rungs: clientCacheRungs},
	{ID: "advisor", Columns: standardCols, run: adviseSweep},
	{ID: "flush", Columns: []Column{configCol, wallCol,
		seconds("io (s)", func(r *Result) time.Duration { return r.IOTime }),
		p95Col,
		count("stalls", func(r *Result) uint64 { return r.Cache.ForcedFlushStalls }),
		count("flushes", func(r *Result) uint64 { return r.Cache.Flushes }),
		count("deadline_flushes", func(r *Result) uint64 { return r.Cache.DeadlineFlushes }),
		count("max_dirty", func(r *Result) int { return r.Cache.MaxDirty }),
	}, Rungs: flushRungs},
	{ID: "faults", Columns: []Column{configCol, wallCol, mbsCol, p95Col,
		count("degraded", func(r *Result) uint64 { return r.Degraded }),
		count("rerouted", func(r *Result) uint64 { return r.Rerouted }),
		count("recalls", func(r *Result) uint64 { return r.Recalls }),
	}, Rungs: faultRungs},
	{ID: "logtier", Columns: []Column{configCol, wallCol, mbsCol, p95Col,
		count("appends", func(r *Result) uint64 { return r.Log.Appends }),
		count("drains", func(r *Result) uint64 { return r.Log.Drains }),
		count("rd_stalls", func(r *Result) uint64 { return r.Log.ReadBackStalls }),
		count("bp_stalls", func(r *Result) uint64 { return r.Log.AppendStalls }),
		seconds("stall (s)", func(r *Result) time.Duration { return r.Log.StallWait }),
	}, Rungs: logTierRungs},
}

// SweepIDs lists the registered sweep ids in registry order.
func SweepIDs() []string {
	ids := make([]string, len(sweeps))
	for i, sw := range sweeps {
		ids[i] = sw.ID
	}
	return ids
}

// LookupSweep returns the registered sweep with the given id.
func LookupSweep(id string) (Sweep, bool) {
	for _, sw := range sweeps {
		if sw.ID == id {
			return sw, true
		}
	}
	return Sweep{}, false
}

// Run executes the sweep on base and returns one labelled result per
// rung, in rung order.
func (sw Sweep) Run(base Params) ([]*Result, error) {
	if sw.run != nil {
		return sw.run(base)
	}
	return runLadder(base, sw.ID, sw.Rungs(base))
}

// runLadder runs base under every rung through core.Each with
// GOMAXPROCS workers — each run builds its own single-threaded
// simulation, so rungs are embarrassingly parallel — and returns the
// results in rung order. Results are deterministic in the parameters
// regardless of worker count; on error, the first failing rung (in rung
// order) is reported.
func runLadder(base Params, id string, rungs []Rung) ([]*Result, error) {
	out := make([]*Result, len(rungs))
	err := core.Each(len(rungs), 0, func(i int) error {
		p := base
		rungs[i].Apply(&p)
		res, err := Run(p)
		if err != nil {
			return fmt.Errorf("%s %s=%s: %w", base.Kernel, id, rungs[i].Label, err)
		}
		res.Label = rungs[i].Label
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// adviseSweep closes the advisor loop on one kernel: run it bare,
// classify the trace (policy.Classify), derive a cache configuration for
// the I/O nodes the bare run had (policy.AdviseTiers), and re-run under
// the advised tiers. Two rows come back: the bare run and the advised
// run, labelled with the advised cache.Tiers.
func adviseSweep(base Params) ([]*Result, error) {
	bare := base
	bare.Tiers = cache.Tiers{}
	baseRes, traced, err := runTraced(context.Background(), bare)
	if err != nil {
		return nil, err
	}
	plan := policy.AdviseTiers(policy.Classify(traced.Trace),
		policy.CacheOptions{IONodes: len(traced.IONodes)})
	advised := bare
	advised.Tiers = plan.Tiers
	advRes, err := Run(advised)
	if err != nil {
		return nil, err
	}
	baseRes.Label = "no-cache"
	advRes.Label = "advised: " + plan.Tiers.String()
	return []*Result{baseRes, advRes}, nil
}

// FindRungs returns the results labelled with labels, in argument order;
// it fails on the first label no result carries.
func FindRungs(results []*Result, labels ...string) ([]*Result, error) {
	out := make([]*Result, len(labels))
	for i, label := range labels {
		for _, r := range results {
			if r.Label == label {
				out[i] = r
				break
			}
		}
		if out[i] == nil {
			return nil, fmt.Errorf("iobench: no rung labelled %q", label)
		}
	}
	return out, nil
}

func seconds(head string, f func(*Result) time.Duration) Column {
	return Column{Head: head, Cell: func(r *Result) string { return fmt.Sprintf("%.3f", f(r).Seconds()) }}
}

func millis(head string, f func(*Result) time.Duration) Column {
	return Column{Head: head, Cell: func(r *Result) string { return fmt.Sprintf("%.2f", f(r).Seconds()*1000) }}
}

func count[T int | uint64](head string, f func(*Result) T) Column {
	return Column{Head: head, Cell: func(r *Result) string { return fmt.Sprintf("%d", f(r)) }}
}

// The columns every table shares.
var (
	configCol = Column{Head: "config", Cell: func(r *Result) string { return r.Label }}
	wallCol   = seconds("wall (s)", func(r *Result) time.Duration { return r.Wall })
	mbsCol    = Column{Head: "MB/s", Cell: func(r *Result) string { return fmt.Sprintf("%.2f", r.BandwidthMBs()) }}
	p95Col    = millis("p95 (ms)", func(r *Result) time.Duration { return r.P95Op })
)

// standardCols is the table of ladders without counters of their own.
var standardCols = []Column{configCol, wallCol, mbsCol,
	count("ops", func(r *Result) int { return r.Ops }),
	{Head: "mean op (ms)", Cell: func(r *Result) string { return fmt.Sprintf("%.2f", r.MeanOpMillis()) }},
	millis("p50 (ms)", func(r *Result) time.Duration { return r.P50Op }),
	p95Col,
}

// requestRungs varies the request size — the kernel's access grain.
func requestRungs(sizes ...int64) []Rung {
	rungs := make([]Rung, len(sizes))
	for i, s := range sizes {
		rungs[i] = Rung{fmt.Sprintf("%d KB", s>>10), func(p *Params) { p.Request = s }}
	}
	return rungs
}

// ioNodeRungs varies the I/O node count — the machine-configuration
// study of the paper's future work.
func ioNodeRungs(counts ...int) []Rung {
	rungs := make([]Rung, len(counts))
	for i, c := range counts {
		rungs[i] = Rung{fmt.Sprintf("%d io nodes", c), func(p *Params) { p.IONodes = c }}
	}
	return rungs
}

// tiersRung replaces the base's whole tier stack.
func tiersRung(label string, t cache.Tiers) Rung {
	return Rung{label, func(p *Params) { p.Tiers = t }}
}

// cacheRungs is the canonical what-if I/O-node cache ladder: no cache,
// write-behind, and write-behind + read-ahead. Labels align with the
// cachewhatif experiment family; the base's other tiers are kept.
func cacheRungs(Params) []Rung {
	ionode := func(label string, c *cache.Config) Rung {
		return Rung{label, func(p *Params) { p.Tiers.IONode = c }}
	}
	return []Rung{
		ionode("no-cache", nil),
		ionode("write-behind", &cache.Config{WriteBehind: true}),
		ionode("wb+read-ahead", &cache.Config{WriteBehind: true, ReadAhead: 4}),
	}
}

// benchClient is the client tier of the kernel ladders. The lease TTL
// is long because benchmark kernels re-reference within one run; the
// TTL axis itself is studied by the clientcache experiment family.
func benchClient() *cache.ClientConfig {
	return &cache.ClientConfig{CapacityBytes: 8 << 20, LeaseTTL: 10 * time.Minute}
}

// clientCacheRungs is the client-tier ladder: no cache, the
// lease-coherent client cache alone, and the client cache stacked on
// the I/O-node cache.
func clientCacheRungs(Params) []Rung {
	return []Rung{
		tiersRung("no-cache", cache.Tiers{}),
		tiersRung("client", cache.Tiers{Client: benchClient()}),
		tiersRung("client+ion", cache.Tiers{
			Client: benchClient(),
			IONode: &cache.Config{WriteBehind: true, ReadAhead: 4},
		}),
	}
}

// flushRungs is the flush-policy ladder: the legacy high-water + idle
// policy and the deadline policy across batch size, watermark, and
// deadline settings. Capacity is held at 2 MB so a checkpoint burst
// overruns it — the regime where the flush policy, not the cache size,
// decides how many writes stall.
func flushRungs(Params) []Rung {
	mk := func(label string, batch, hw int, deadline time.Duration) Rung {
		return tiersRung(label, cache.Tiers{IONode: &cache.Config{
			WriteBehind:    true,
			CapacityBytes:  2 << 20,
			FlushBatch:     batch,
			DirtyHighWater: hw,
			FlushDeadline:  deadline,
		}})
	}
	return []Rung{
		mk("hw-idle b=4 hw=25%", 4, 8, 0),
		mk("hw-idle b=4 hw=75%", 4, 24, 0),
		mk("hw-idle b=32 hw=25%", 32, 8, 0),
		mk("hw-idle b=32 hw=75%", 32, 24, 0),
		mk("deadline=50ms b=4 hw=25%", 4, 8, 50*time.Millisecond),
		mk("deadline=50ms b=4 hw=75%", 4, 24, 50*time.Millisecond),
		mk("deadline=50ms b=32 hw=25%", 32, 8, 50*time.Millisecond),
		mk("deadline=50ms b=32 hw=75%", 32, 24, 50*time.Millisecond),
		mk("deadline=1s b=4 hw=25%", 4, 8, time.Second),
		mk("deadline=1s b=4 hw=75%", 4, 24, time.Second),
		mk("deadline=1s b=32 hw=25%", 32, 8, time.Second),
		mk("deadline=1s b=32 hw=75%", 32, 24, time.Second),
	}
}

// logTierRungs is the burst-absorption ladder: no tier at all,
// write-behind through a deadline-flushed I/O-node cache (the
// server-side answer to bursts), the host-side log alone, and the log
// draining through the block cache.
func logTierRungs(Params) []Rung {
	wb := func() *cache.Config {
		return &cache.Config{
			WriteBehind:   true,
			CapacityBytes: 2 << 20,
			FlushDeadline: 50 * time.Millisecond,
		}
	}
	return []Rung{
		tiersRung("no-cache", cache.Tiers{}),
		tiersRung("write-behind", cache.Tiers{IONode: wb()}),
		tiersRung("log-tier", cache.Tiers{Log: &cache.LogConfig{}}),
		tiersRung("log+ion", cache.Tiers{Log: &cache.LogConfig{}, IONode: wb()}),
	}
}

// faultRungs is the degraded-mode ladder: the healthy machine, then each
// fault kind injected alone. The client-flap rungs carry the
// lease-coherent client tier (the fault needs leases to storm), so they
// get their own healthy baseline for an apples-to-apples comparison.
// Injection times sit early in the run so most of the workload executes
// degraded. Each rung overrides the base's Faults and Tiers.Client.
func faultRungs(Params) []Rung {
	at := 250 * time.Millisecond
	rung := func(label string, client bool, fs ...faults.Fault) Rung {
		return Rung{label, func(p *Params) {
			p.Faults = faults.Plan{Faults: fs}
			p.Tiers.Client = nil
			if client {
				p.Tiers.Client = benchClient()
			}
		}}
	}
	return []Rung{
		rung("healthy", false),
		rung("disk-fail", false, faults.Fault{Kind: faults.DiskFail, At: at, IONode: 0}),
		rung("node-crash", false, faults.Fault{Kind: faults.NodeCrash, At: at, IONode: 0}),
		rung("straggler x4", false, faults.Fault{Kind: faults.Straggler, At: at, IONode: 0, Factor: 4}),
		rung("client healthy", true),
		rung("client-flap x5", true,
			faults.Fault{Kind: faults.ClientFlap, At: at, Node: 1, Count: 5, Period: 500 * time.Millisecond}),
	}
}
