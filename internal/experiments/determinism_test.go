package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"paragonio/internal/analysis"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

// goldenDigests pins the FNV-1a digest of the full Pablo event stream of
// every canonical application run. The digests were captured from the
// original goroutine-per-event kernel; the callback fast path, the 4-ary
// event heap, and the parallel suite runner must all reproduce them
// bit-for-bit. If an intentional model change shifts a trace, update the
// table in the same commit and say why.
var goldenDigests = []struct {
	key    string
	events int
	digest uint64
	run    func(s *Suite) (*core.Result, error)
}{
	{"escat/eth/A", 81113, 0xb4b7edebfac97216, func(s *Suite) (*core.Result, error) { return s.Ethylene("A") }},
	{"escat/eth/B", 34520, 0x339e736a3349ea94, func(s *Suite) (*core.Result, error) { return s.Ethylene("B") }},
	{"escat/eth/C", 23768, 0x88c20c67d0b1703c, func(s *Suite) (*core.Result, error) { return s.Ethylene("C") }},
	{"escat/co/C", 107485, 0x83cf63b5fa1f8c5e, func(s *Suite) (*core.Result, error) { return s.CarbonMonoxide() }},
	{"prism/A", 19468, 0x0877c0ffa02814f3, func(s *Suite) (*core.Result, error) { return s.Prism("A") }},
	{"prism/B", 19972, 0x779d1cf4508e97d6, func(s *Suite) (*core.Result, error) { return s.Prism("B") }},
	{"prism/C", 11396, 0xbc010fbf3debceec, func(s *Suite) (*core.Result, error) { return s.Prism("C") }},
}

// TestGoldenDigests checks every canonical run against the pinned trace
// digests, and runs each a second time in a fresh suite to prove the
// simulation is bit-reproducible run to run.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	again := NewSuite(1)
	for _, g := range goldenDigests {
		res, err := g.run(sharedSuite)
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if n := res.Trace.Len(); n != g.events {
			t.Errorf("%s: %d events, golden %d", g.key, n, g.events)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s: digest %#016x, golden %#016x", g.key, d, g.digest)
		}
		res2, err := g.run(again)
		if err != nil {
			t.Fatalf("%s (rerun): %v", g.key, err)
		}
		if d1, d2 := res.Trace.Digest(), res2.Trace.Digest(); d1 != d2 {
			t.Errorf("%s: rerun digest %#016x != %#016x — run not reproducible", g.key, d2, d1)
		}
	}
}

// TestRunAllParallelMatchesSerial runs the full experiment suite once
// serially and once with a parallel worker pool on a fresh suite, and
// requires identical artifacts: same text, metrics, and underlying trace
// digests. This is the gate that lets iotables default to -j GOMAXPROCS.
// TestPhaseStatsMatchesSliceByPhase checks the copy-free phase sums
// against aggregating the copied sub-trace, for every phase of every
// canonical run.
func TestPhaseStatsMatchesSliceByPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	for _, g := range goldenDigests {
		res, err := g.run(sharedSuite)
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if len(res.Phases) == 0 {
			t.Fatalf("%s: no phases", g.key)
		}
		for _, ph := range res.Phases {
			got := analysis.PhaseStats(res.Trace, ph)
			if want := pablo.AggregateByOp(analysis.SliceByPhase(res.Trace, ph)); got != want {
				t.Errorf("%s phase %q: PhaseStats %+v, sliced %+v", g.key, ph.Name, got, want)
			}
		}
	}
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	serial, err := RunAll(sharedSuite, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // exercise real contention even on small CI machines
	}
	par := NewSuite(1)
	parallel, err := RunAll(par, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("parallel returned %d artifacts, serial %d", len(parallel), len(serial))
	}
	for i, a := range serial {
		b := parallel[i]
		if a.ID != b.ID {
			t.Fatalf("artifact %d: id %q vs %q — order not preserved", i, a.ID, b.ID)
		}
		if a.Text != b.Text {
			t.Errorf("%s: parallel text differs from serial", a.ID)
		}
		if !reflect.DeepEqual(a.Measured, b.Measured) {
			t.Errorf("%s: parallel metrics differ from serial", a.ID)
		}
	}
	for _, g := range goldenDigests {
		res, err := g.run(par)
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s under parallel runner: digest %#016x, golden %#016x", g.key, d, g.digest)
		}
	}
}
