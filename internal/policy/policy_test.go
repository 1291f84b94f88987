package policy

import (
	"context"
	"testing"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

func mkRead(node int, file string, off, size int64, mode pablo.Mode) pablo.Event {
	return pablo.Event{Node: int32(node), Op: pablo.OpRead, File: file, Offset: off,
		Size: size, Duration: time.Millisecond, Mode: mode}
}

func mkWrite(node int, file string, off, size int64, mode pablo.Mode) pablo.Event {
	return pablo.Event{Node: int32(node), Op: pablo.OpWrite, File: file, Offset: off,
		Size: size, Duration: time.Millisecond, Mode: mode}
}

func TestClassifyIdenticalReads(t *testing.T) {
	tr := pablo.NewTrace()
	for node := 0; node < 4; node++ {
		off := int64(0)
		for i := 0; i < 10; i++ {
			tr.Record(mkRead(node, "input", off, 100, pablo.ModeUnix))
			off += 100
		}
	}
	p := Classify(tr)["input"]
	if p == nil {
		t.Fatal("no profile")
	}
	if !p.IdenticalReads {
		t.Fatal("identical reads not detected")
	}
	if len(p.Readers) != 4 || p.Reads != 40 {
		t.Fatalf("readers %v, reads %d", p.Readers, p.Reads)
	}
	if p.SeqReadFrac < 0.99 {
		t.Fatalf("SeqReadFrac = %g", p.SeqReadFrac)
	}
}

func TestClassifyInterleavedWrites(t *testing.T) {
	tr := pablo.NewTrace()
	const nodes, size = 4, 2720
	for cyc := 0; cyc < 5; cyc++ {
		for node := 0; node < nodes; node++ {
			off := int64(cyc*nodes+node) * size
			tr.Record(pablo.Event{Node: int32(node), Op: pablo.OpSeek, File: "quad", Offset: off, Mode: pablo.ModeUnix})
			tr.Record(mkWrite(node, "quad", off, size, pablo.ModeUnix))
		}
	}
	p := Classify(tr)["quad"]
	if !p.InterleavedWrites {
		t.Fatal("interleaved writes not detected")
	}
	if p.SeeksPerWrite != 1 {
		t.Fatalf("SeeksPerWrite = %g", p.SeeksPerWrite)
	}
}

func TestClassifyFixedReadSize(t *testing.T) {
	tr := pablo.NewTrace()
	for node := 0; node < 4; node++ {
		for round := 0; round < 5; round++ {
			off := int64(round*4+node) * 131072
			tr.Record(mkRead(node, "quad", off, 131072, pablo.ModeRecord))
		}
	}
	p := Classify(tr)["quad"]
	if p.FixedReadSize != 131072 {
		t.Fatalf("FixedReadSize = %d", p.FixedReadSize)
	}
	if p.IdenticalReads {
		t.Fatal("disjoint reads misclassified as identical")
	}
}

func TestAdviseGlobalRead(t *testing.T) {
	tr := pablo.NewTrace()
	for node := 0; node < 8; node++ {
		tr.Record(pablo.Event{Node: int32(node), Op: pablo.OpOpen, File: "input", Mode: pablo.ModeUnix})
		off := int64(0)
		for i := 0; i < 20; i++ {
			tr.Record(mkRead(node, "input", off, 200, pablo.ModeUnix))
			off += 200
		}
	}
	recs := Advise(Classify(tr)["input"], Options{})
	if !hasKind(recs, UseGlobalRead) {
		t.Fatalf("no global-read advice in %v", recs)
	}
	if !hasKind(recs, UseGopen) {
		t.Fatalf("no gopen advice for 8 concurrent opens in %v", recs)
	}
	if !hasKind(recs, EnablePrefetch) {
		t.Fatalf("no prefetch advice for small sequential reads in %v", recs)
	}
}

func TestAdviseAsyncWrites(t *testing.T) {
	tr := pablo.NewTrace()
	const nodes, size = 8, 2720
	for cyc := 0; cyc < 4; cyc++ {
		for node := 0; node < nodes; node++ {
			off := int64(cyc*nodes+node) * size
			tr.Record(pablo.Event{Node: int32(node), Op: pablo.OpSeek, File: "quad", Offset: off, Mode: pablo.ModeUnix})
			tr.Record(mkWrite(node, "quad", off, size, pablo.ModeUnix))
		}
	}
	recs := Advise(Classify(tr)["quad"], Options{})
	if !hasKind(recs, UseAsyncWrites) {
		t.Fatalf("no async-write advice in %v", recs)
	}
}

func TestAdviseRecordAndAlignment(t *testing.T) {
	tr := pablo.NewTrace()
	for node := 0; node < 4; node++ {
		for round := 0; round < 4; round++ {
			off := int64(round*4+node) * 100000
			tr.Record(mkRead(node, "data", off, 100000, pablo.ModeUnix))
		}
	}
	recs := Advise(Classify(tr)["data"], Options{})
	if !hasKind(recs, UseRecordReads) {
		t.Fatalf("no record advice in %v", recs)
	}
	if !hasKind(recs, AlignToStripe) {
		t.Fatalf("no alignment advice for 100000-byte records in %v", recs)
	}
}

func TestAdviseQuietOnTinyProfiles(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkRead(0, "f", 0, 100, pablo.ModeUnix))
	if recs := Advise(Classify(tr)["f"], Options{}); recs != nil {
		t.Fatalf("advice on trivial profile: %v", recs)
	}
}

// TestAdvisorReproducesESCATTuning is the package's headline property:
// fed version A's trace, the advisor recommends the optimizations the
// developers applied by hand to reach versions B and C.
func TestAdvisorReproducesESCATTuning(t *testing.T) {
	d := escat.Ethylene()
	d.Nodes = 16
	d.HeaderReads = 30
	d.Cycles = 6
	d.CycleCompute = 2 * time.Second
	d.CycleJitter = 500 * time.Millisecond
	d.SetupCompute = time.Second
	d.EnergyCompute = time.Second
	res, err := escat.Run(context.Background(), core.Config{Seed: 1}, d, escat.VersionA())
	if err != nil {
		t.Fatal(err)
	}
	recs := AdviseAll(Classify(res.Trace), Options{})
	// Input files: all nodes read identical data -> global read + gopen.
	if !hasFileKind(recs, "escat/input.0", UseGlobalRead) {
		t.Errorf("no global-read advice for input files; recs=%v", recs)
	}
	// Staging file: node-zero small writes -> write-behind/aggregation.
	if !hasFileKind(recs, "escat/quad.0", UseWriteBehind) {
		t.Errorf("no write-behind advice for staging writes; recs=%v", recs)
	}
}

// TestAdvisorReproducesPRISMBTuning: version B's staging pattern (the
// M_UNIX interleaved writes of ESCAT B) draws the M_ASYNC advice that
// became version C.
func TestAdvisorReproducesESCATBToC(t *testing.T) {
	d := escat.Ethylene()
	d.Nodes = 16
	d.HeaderReads = 30
	d.Cycles = 6
	d.CycleCompute = 2 * time.Second
	d.CycleJitter = 500 * time.Millisecond
	d.SetupCompute = time.Second
	d.EnergyCompute = time.Second
	res, err := escat.Run(context.Background(), core.Config{Seed: 1}, d, escat.VersionB())
	if err != nil {
		t.Fatal(err)
	}
	recs := AdviseAll(Classify(res.Trace), Options{})
	if !hasFileKind(recs, "escat/quad.0", UseAsyncWrites) {
		t.Errorf("no M_ASYNC advice for B's staging writes; recs=%v", recs)
	}
}

func TestAdvisorOnPRISMVersionA(t *testing.T) {
	d := prism.TestProblem()
	d.Nodes = 8
	d.Steps = 20
	d.CheckpointEvery = 10
	d.StepCompute = 200 * time.Millisecond
	d.SetupCompute = time.Second
	d.PostCompute = time.Second
	res, err := prism.Run(context.Background(), core.Config{Seed: 1}, d, prism.VersionA())
	if err != nil {
		t.Fatal(err)
	}
	recs := AdviseAll(Classify(res.Trace), Options{})
	if !hasFileKind(recs, "prism/params", UseGlobalRead) {
		t.Errorf("no global-read advice for the parameter file; recs=%v", recs)
	}
	if !hasFileKind(recs, "prism/measurements", UseWriteBehind) {
		t.Errorf("no write-behind advice for the measurement stream; recs=%v", recs)
	}
}

func hasKind(recs []Recommendation, k Kind) bool {
	for _, r := range recs {
		if r.Kind == k {
			return true
		}
	}
	return false
}

func hasFileKind(recs []Recommendation, file string, k Kind) bool {
	for _, r := range recs {
		if r.File == file && r.Kind == k {
			return true
		}
	}
	return false
}
