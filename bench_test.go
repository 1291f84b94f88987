package paragonio_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per artifact) and runs the ablation
// studies DESIGN.md calls out. Each artifact benchmark reports, besides
// the usual ns/op of regenerating it, the headline measured quantity as
// a custom metric so `go test -bench` output doubles as a results sheet.
//
// Artifact regeneration re-simulates the full paper workloads (128-node
// ESCAT, 64-node PRISM, 256-node carbon monoxide), so a full -bench=.
// sweep takes a few minutes; use -benchtime=1x for a single regeneration
// of each.

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/disk"
	"paragonio/internal/experiments"
	"paragonio/internal/iobench"
	"paragonio/internal/mesh"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/sim"
	"paragonio/internal/workload"
)

// benchArtifact regenerates one experiment per iteration and reports the
// named measured metrics.
func benchArtifact(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var art *experiments.Artifact
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(1) // fresh: measure full regeneration
		var err error
		art, err = e.Run(suite)
		if err != nil {
			b.Fatal(err)
		}
		// Artifacts carry only rendered text and metric maps, no trace
		// views, so the buffers can go back to the event pool.
		suite.Release()
	}
	for _, m := range metrics {
		if v, ok := art.Measured[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// ---- one benchmark per paper table ----

func BenchmarkTable1ESCATModes(b *testing.B) {
	benchArtifact(b, "table1")
}

func BenchmarkTable2ESCATIOTime(b *testing.B) {
	benchArtifact(b, "table2", "A.open", "B.seek", "C.write")
}

func BenchmarkTable3ESCATExecShare(b *testing.B) {
	benchArtifact(b, "table3", "eth.A.allio", "eth.B.allio", "eth.C.allio", "co.C.allio")
}

func BenchmarkTable4PRISMModes(b *testing.B) {
	benchArtifact(b, "table4")
}

func BenchmarkTable5PRISMIOTime(b *testing.B) {
	benchArtifact(b, "table5", "A.open", "B.open", "C.read")
}

// ---- one benchmark per paper figure ----

func BenchmarkFigure1ESCATProgression(b *testing.B) {
	benchArtifact(b, "figure1", "exec.A", "exec.C", "reduction.pct")
}

func BenchmarkFigure2ESCATCDF(b *testing.B) {
	benchArtifact(b, "figure2", "A.reads.small.frac", "C.readdata.large128K.frac")
}

func BenchmarkFigure3ESCATReadTimeline(b *testing.B) {
	benchArtifact(b, "figure3", "A.reads", "C.reads")
}

func BenchmarkFigure4ESCATWriteTimeline(b *testing.B) {
	benchArtifact(b, "figure4", "A.staging.sizes", "C.staging.sizes")
}

func BenchmarkFigure5ESCATSeeks(b *testing.B) {
	benchArtifact(b, "figure5", "B.seek.max_s", "C.seek.max_s")
}

func BenchmarkFigure6PRISMProgression(b *testing.B) {
	benchArtifact(b, "figure6", "exec.A", "exec.C", "reduction.pct")
}

func BenchmarkFigure7PRISMCDF(b *testing.B) {
	benchArtifact(b, "figure7", "A.readdata.large.frac", "smallreads.ratio.AoverC")
}

func BenchmarkFigure8PRISMReadTimeline(b *testing.B) {
	benchArtifact(b, "figure8", "A.readspan_s", "B.readspan_s", "C.readspan_s")
}

func BenchmarkFigure9PRISMWriteTimeline(b *testing.B) {
	benchArtifact(b, "figure9", "checkpoints.visible")
}

// ---- ablation studies (DESIGN.md section 6) ----
// Each reports the *virtual* completion time of a fixed workload as the
// configuration knob sweeps; virtual_s is the scientifically meaningful
// output.

// collectiveReadWorkload: 32 nodes read a 32 MB file in 128 KB M_RECORD
// rounds on a machine with the given PFS geometry.
func collectiveReadWorkload(b *testing.B, ioNodes int, stripe int64) float64 {
	b.Helper()
	cfg := core.Config{Nodes: 32, Seed: 1, IONodes: ioNodes, StripeUnit: stripe}
	res, err := core.Run(cfg, "ablation", "sweep", func(m *workload.Machine, seed int64) error {
		m.FS.CreateFile("data", 32<<20)
		ids := make([]int, m.Nodes)
		for i := range ids {
			ids[i] = i
		}
		g, err := m.FS.NewGroup(ids)
		if err != nil {
			return err
		}
		m.SpawnNodes(seed, func(n *workload.Node) {
			h, err := g.Gopen(n.P, n.ID, "data", pfs.MRecord)
			if err != nil {
				panic(err)
			}
			h.SetBuffering(false)
			rounds := int((32 << 20) / (128 << 10) / int64(m.Nodes))
			for r := 0; r < rounds; r++ {
				if _, err := h.Read(n.P, 128<<10); err != nil {
					panic(err)
				}
			}
			h.Close(n.P)
		})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Exec.Seconds()
}

// BenchmarkAblationIONodes sweeps the I/O node count — the machine
// configuration study the paper's future work proposes.
func BenchmarkAblationIONodes(b *testing.B) {
	for _, ion := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("ionodes=%d", ion), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = collectiveReadWorkload(b, ion, 64<<10)
			}
			b.ReportMetric(v, "virtual_s")
		})
	}
}

// BenchmarkAblationStripeUnit sweeps the stripe unit against the fixed
// 128 KB request size; the paper's rule — requests should be stripe
// multiples — shows as the minimum.
func BenchmarkAblationStripeUnit(b *testing.B) {
	for _, su := range []int64{16 << 10, 64 << 10, 128 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("stripe=%dKB", su>>10), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = collectiveReadWorkload(b, 16, su)
			}
			b.ReportMetric(v, "virtual_s")
		})
	}
}

// BenchmarkAblationAggregation quantifies section 7's request
// aggregation: the version A staging write stream, raw vs aggregated.
func BenchmarkAblationAggregation(b *testing.B) {
	run := func(aggregate bool) float64 {
		res, err := core.Run(core.Config{Nodes: 1, Seed: 1}, "ablation", "agg",
			func(m *workload.Machine, seed int64) error {
				m.SpawnNodes(seed, func(n *workload.Node) {
					h, err := m.FS.Open(n.P, 0, "quad", pfs.MUnix)
					if err != nil {
						panic(err)
					}
					if aggregate {
						// The same 4000×1664 bytes, coalesced client-side
						// into stripe-unit writes plus the remainder.
						total := int64(4000 * 1664)
						for ; total >= pfs.DefaultStripeUnit; total -= pfs.DefaultStripeUnit {
							h.Write(n.P, pfs.DefaultStripeUnit)
						}
						h.Write(n.P, total)
					} else {
						for i := 0; i < 4000; i++ {
							h.Write(n.P, 1664)
						}
					}
					h.Close(n.P)
				})
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		return res.Exec.Seconds()
	}
	for _, agg := range []bool{false, true} {
		name := "raw"
		if agg {
			name = "aggregated"
		}
		b.Run(name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = run(agg)
			}
			b.ReportMetric(v, "virtual_s")
		})
	}
}

// BenchmarkAblationBuffering quantifies the PRISM version C mistake: the
// restart header consultation stream with client buffering on vs off.
func BenchmarkAblationBuffering(b *testing.B) {
	run := func(buffered bool) float64 {
		res, err := core.Run(core.Config{Nodes: 16, Seed: 1}, "ablation", "buf",
			func(m *workload.Machine, seed int64) error {
				m.FS.CreateFile("restart", 1<<20)
				m.SpawnNodes(seed, func(n *workload.Node) {
					h, err := m.FS.Open(n.P, n.ID, "restart", pfs.MAsync)
					if err != nil {
						panic(err)
					}
					h.SetBuffering(buffered)
					// The same header field is consulted repeatedly, as
					// PRISM's setup code does: with buffering each consult
					// is a copy; without it, a full disk round trip.
					for i := 0; i < 100; i++ {
						if err := h.Seek(n.P, 0); err != nil {
							panic(err)
						}
						if _, err := h.Read(n.P, 36); err != nil {
							panic(err)
						}
					}
					h.Close(n.P)
				})
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		return res.Exec.Seconds()
	}
	for _, buffered := range []bool{true, false} {
		name := "buffered"
		if !buffered {
			name = "unbuffered"
		}
		b.Run(name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = run(buffered)
			}
			b.ReportMetric(v, "virtual_s")
		})
	}
}

// BenchmarkAblationSeeksPerWrite isolates the version B pathology: the
// ESCAT staging cycle with 0, 1 and 2 shared-state seeks per write.
func BenchmarkAblationSeeksPerWrite(b *testing.B) {
	run := func(seeks int) float64 {
		res, err := core.Run(core.Config{Nodes: 32, Seed: 1}, "ablation", "seeks",
			func(m *workload.Machine, seed int64) error {
				all := m.NewCollective("all", m.Nodes)
				m.SpawnNodes(seed, func(n *workload.Node) {
					h, err := m.FS.Open(n.P, n.ID, "quad", pfs.MUnix)
					if err != nil {
						panic(err)
					}
					for cyc := 0; cyc < 8; cyc++ {
						n.ComputeJitter(time.Second, 200*time.Millisecond)
						all.Barrier(n)
						off := int64(cyc*m.Nodes+n.ID) * 2720
						for s := 0; s < seeks; s++ {
							if err := h.Seek(n.P, off); err != nil {
								panic(err)
							}
						}
						if _, err := h.Write(n.P, 2720); err != nil {
							panic(err)
						}
					}
					h.Close(n.P)
				})
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		return res.Exec.Seconds()
	}
	for _, seeks := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("seeks=%d", seeks), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = run(seeks)
			}
			b.ReportMetric(v, "virtual_s")
		})
	}
}

// ---- simulator micro-benchmarks (real-time cost of the engine) ----

// BenchmarkKernelEventDispatch measures a lone process doing timed
// waits. Its own wake is always the next event, so every wait completes
// inline: this is the cost of an event that needs no coroutine switch.
func BenchmarkKernelEventDispatch(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelProcessHandoff measures the coroutine switch itself:
// two processes whose timed waits interleave (one wakes on even
// microseconds, the other on odd), so the other's wake always comes
// first and every wait parks and is resumed by a real switch. One op is
// one wait.
func BenchmarkKernelProcessHandoff(b *testing.B) {
	k := sim.NewKernel()
	for i := 0; i < 2; i++ {
		offset := time.Duration(i) * time.Microsecond
		waits := (b.N + 1 - i) / 2
		k.Spawn("p", func(p *sim.Proc) {
			p.Wait(offset)
			for j := 0; j < waits; j++ {
				p.Wait(2 * time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelTimedWaitChurn measures pure timer churn through the
// 4-ary event heap: 64 interleaved callback chains with staggered
// periods, so pushes and pops constantly reorder the heap with no
// goroutine handoffs at all.
func BenchmarkKernelTimedWaitChurn(b *testing.B) {
	k := sim.NewKernel()
	const chains = 64
	per := b.N/chains + 1
	for c := 0; c < chains; c++ {
		period := time.Duration(c+1) * time.Microsecond
		left := per
		var hop func()
		hop = func() {
			left--
			if left > 0 {
				k.After(period, hop)
			}
		}
		k.After(period, hop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelResourceContention hammers one capacity-1 server with 32
// clients, comparing the process-shaped path (Use: two goroutine handoffs
// per grant) against the callback fast path (UseFn: zero).
func BenchmarkKernelResourceContention(b *testing.B) {
	const clients = 32
	b.Run("proc", func(b *testing.B) {
		k := sim.NewKernel()
		r := sim.NewResource(k, "srv", 1)
		per := b.N/clients + 1
		for c := 0; c < clients; c++ {
			k.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < per; i++ {
					r.Use(p, time.Microsecond)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("callback", func(b *testing.B) {
		k := sim.NewKernel()
		r := sim.NewResource(k, "srv", 1)
		per := b.N/clients + 1
		for c := 0; c < clients; c++ {
			left := per
			var use func()
			use = func() {
				left--
				if left > 0 {
					r.UseFn(func() sim.Time { return time.Microsecond }, use)
				} else {
					r.UseFn(func() sim.Time { return time.Microsecond }, nil)
				}
			}
			k.After(0, use)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSuiteParallel regenerates the entire artifact suite through
// the worker-pool runner, serial vs all cores — the wall-clock win the
// iotables -j flag buys. Use -benchtime=1x: one iteration re-simulates
// every paper workload.
func BenchmarkSuiteParallel(b *testing.B) {
	runAll := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunAll(experiments.NewSuite(1), nil, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { runAll(b, 1) })
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		runAll(b, runtime.GOMAXPROCS(0))
	})
}

func BenchmarkPFSSmallRead(b *testing.B) {
	k := sim.NewKernel()
	m := mesh.MustNew(mesh.DefaultConfig())
	fs, err := pfs.New(k, pfs.DefaultConfig(m), pablo.Discard)
	if err != nil {
		b.Fatal(err)
	}
	fs.CreateFile("f", 1<<30)
	k.Spawn("p", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", pfs.MAsync)
		for i := 0; i < b.N; i++ {
			if _, err := h.Read(p, 1024); err != nil {
				panic(err)
			}
		}
		h.Close(p)
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPFSStripedTransfer(b *testing.B) {
	k := sim.NewKernel()
	m := mesh.MustNew(mesh.DefaultConfig())
	fs, err := pfs.New(k, pfs.DefaultConfig(m), pablo.Discard)
	if err != nil {
		b.Fatal(err)
	}
	fs.CreateFile("f", 1<<40)
	k.Spawn("p", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", pfs.MAsync)
		h.SetBuffering(false)
		for i := 0; i < b.N; i++ {
			if _, err := h.Read(p, 1<<20); err != nil { // spans all 16 I/O nodes
				panic(err)
			}
		}
		h.Close(p)
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceRecord measures pablo recording in its steady state:
// every 2^14 events (a PRISM-C-sized run) the trace is released, so its
// growth recycles pooled buffers as suite re-runs and the daemon do.
func BenchmarkTraceRecord(b *testing.B) {
	const perTrace = 1 << 14
	tr := pablo.NewTrace()
	ev := pablo.Event{Node: 1, Op: pablo.OpRead, File: "f", Size: 4096,
		Start: time.Second, Duration: time.Millisecond, Mode: pablo.ModeAsync}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Len() == perTrace {
			tr.Release()
		}
		ev.Offset = int64(i) * 4096
		tr.Record(ev)
	}
	tr.Release()
}

// BenchmarkWriteTrace encodes the PRISM C trace as SDDF text: the
// iosim -trace and daemon "sddf" response path.
func BenchmarkWriteTrace(b *testing.B) {
	res, err := experiments.NewSuite(1).Prism("C")
	if err != nil {
		b.Fatal(err)
	}
	var size countWriter
	if err := pablo.WriteTrace(&size, res.Trace); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pablo.WriteTrace(io.Discard, res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

func BenchmarkDiskService(b *testing.B) {
	a := disk.MustNewArray(disk.DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Service("f", int64(i)*4096, 4096)
	}
}

// ---- derived benchmark suite (internal/iobench) ----

// BenchmarkSuiteKernels runs every canonical access-pattern kernel in
// its best and worst access modes, reporting the virtual completion
// times — the headline output of the paper's proposed benchmark suite.
func BenchmarkSuiteKernels(b *testing.B) {
	cases := []struct {
		kernel iobench.Kernel
		mode   pfs.Mode
	}{
		{iobench.CompulsoryRead, pfs.MUnix},
		{iobench.CompulsoryRead, pfs.MGlobal},
		{iobench.StagingWrite, pfs.MUnix},
		{iobench.StagingWrite, pfs.MAsync},
		{iobench.StridedReload, pfs.MUnix},
		{iobench.StridedReload, pfs.MRecord},
		{iobench.Checkpoint, pfs.MUnix},
		{iobench.ResultFunnel, pfs.MUnix},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/%s", tc.kernel, tc.mode), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				r, err := iobench.Run(iobench.Params{
					Kernel:  tc.kernel,
					Mode:    tc.mode,
					Nodes:   32,
					Request: 128 << 10,
					Volume:  32 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				v = r.Wall.Seconds()
			}
			b.ReportMetric(v, "virtual_s")
		})
	}
}
