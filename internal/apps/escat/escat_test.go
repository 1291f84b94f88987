package escat

import (
	"context"
	"testing"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

// smallEthylene returns a scaled-down ethylene problem so structural
// tests run in milliseconds while exercising every code path.
func smallEthylene() Dataset {
	d := Ethylene()
	d.Nodes = 8
	d.HeaderReads = 10
	d.Cycles = 4
	d.EnergySweeps = 1
	d.ResultWrites = 6
	d.CycleCompute = 2 * time.Second
	d.CycleJitter = 500 * time.Millisecond
	d.SetupCompute = time.Second
	d.EnergyCompute = 2 * time.Second
	d.EnergyJitter = time.Second
	return d
}

func runSmall(t *testing.T, v Version) *core.Result {
	t.Helper()
	res, err := Run(context.Background(), core.Config{Seed: 1}, smallEthylene(), v)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDatasetValidate(t *testing.T) {
	if err := Ethylene().Validate(); err != nil {
		t.Fatalf("ethylene invalid: %v", err)
	}
	if err := CarbonMonoxide().Validate(); err != nil {
		t.Fatalf("carbon monoxide invalid: %v", err)
	}
	bad := []func(*Dataset){
		func(d *Dataset) { d.Nodes = 0 },
		func(d *Dataset) { d.Channels = 0 },
		func(d *Dataset) { d.InputFiles = 0 },
		func(d *Dataset) { d.Cycles = 0 },
		func(d *Dataset) { d.WriteSize = 0 },
		func(d *Dataset) { d.RecordSize = 0 },
		func(d *Dataset) { d.ChunkRead = 0 },
		func(d *Dataset) { d.EnergySweeps = 0 },
	}
	for i, mut := range bad {
		d := Ethylene()
		mut(&d)
		if err := d.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted bad dataset", i)
		}
	}
}

func TestQuadBytesMatchesWritePattern(t *testing.T) {
	d := Ethylene()
	want := int64(d.Cycles) * int64(d.WritesPerCycle) * int64(d.Nodes) * d.WriteSize
	if d.QuadBytes() != want {
		t.Fatalf("QuadBytes = %d, want %d", d.QuadBytes(), want)
	}
}

func TestProgressionsOrderAndFamilies(t *testing.T) {
	prog := Progressions()
	if len(prog) != 6 {
		t.Fatalf("progressions = %d, want 6", len(prog))
	}
	wantIDs := []string{"A", "A2", "B1", "B2", "B3", "C"}
	wantFam := []string{"A", "A", "B", "B", "B", "C"}
	for i, v := range prog {
		if v.ID != wantIDs[i] || v.Family != wantFam[i] {
			t.Fatalf("prog[%d] = %s/%s, want %s/%s", i, v.ID, v.Family, wantIDs[i], wantFam[i])
		}
	}
	// Compute scale must be non-increasing (the tuning story).
	for i := 1; i < len(prog); i++ {
		if prog[i].ComputeScale > prog[i-1].ComputeScale {
			t.Fatalf("compute scale increases at %s", prog[i].ID)
		}
	}
}

func TestModeTableMatchesPaper(t *testing.T) {
	for _, v := range PaperVersions() {
		rows := v.ModeTable()
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows", v.ID, len(rows))
		}
		if rows[3].Activity != "Node zero" || rows[3].Mode != "M_UNIX" {
			t.Fatalf("%s phase 4 = %+v", v.ID, rows[3])
		}
	}
	if VersionC().ModeTable()[1].Mode != "M_ASYNC" {
		t.Fatal("C phase 2 mode not M_ASYNC")
	}
	if VersionB().ModeTable()[2].Mode != "M_RECORD" {
		t.Fatal("B phase 3 mode not M_RECORD")
	}
}

func TestRunVersionAStructure(t *testing.T) {
	res := runSmall(t, VersionA())
	if res.Exec <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	// A: no gopen, no iomode.
	if n := len(byOp(res.Trace, pablo.OpGopen)); n != 0 {
		t.Fatalf("version A issued %d gopens", n)
	}
	if n := len(byOp(res.Trace, pablo.OpIOMode)); n != 0 {
		t.Fatalf("version A issued %d iomodes", n)
	}
	// All nodes read inputs.
	nodes := map[int32]bool{}
	for _, ev := range byOp(res.Trace, pablo.OpRead) {
		if ev.File == "escat/input.0" {
			nodes[ev.Node] = true
		}
	}
	if len(nodes) != 8 {
		t.Fatalf("input read by %d nodes, want all 8", len(nodes))
	}
	// Writes only from node zero.
	for _, ev := range byOp(res.Trace, pablo.OpWrite) {
		if ev.Node != 0 {
			t.Fatalf("version A write from node %d", ev.Node)
		}
	}
	// Four phases recorded.
	if len(res.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(res.Phases))
	}
}

func TestRunVersionCStructure(t *testing.T) {
	res := runSmall(t, VersionC())
	// C: staging writes from every node, in M_ASYNC.
	writers := map[int32]bool{}
	for _, ev := range byOp(res.Trace, pablo.OpWrite) {
		if ev.File == "escat/quad.0" {
			writers[ev.Node] = true
			if ev.Mode != pablo.ModeAsync {
				t.Fatalf("staging write mode %q", ev.Mode)
			}
			if ev.Size != Ethylene().WriteSize {
				t.Fatalf("staging write size %d", ev.Size)
			}
		}
	}
	if len(writers) != 8 {
		t.Fatalf("staging written by %d nodes, want 8", len(writers))
	}
	// Reload reads are M_RECORD at the record size.
	var recReads int
	for _, ev := range byOp(res.Trace, pablo.OpRead) {
		if ev.Mode == pablo.ModeRecord && ev.Size > 0 {
			recReads++
			if ev.Size > smallEthylene().RecordSize {
				t.Fatalf("record read of %d bytes", ev.Size)
			}
		}
	}
	if recReads == 0 {
		t.Fatal("no M_RECORD reload reads")
	}
	// gopen and iomode both present.
	if len(byOp(res.Trace, pablo.OpGopen)) == 0 || len(byOp(res.Trace, pablo.OpIOMode)) == 0 {
		t.Fatal("version C missing gopen/iomode ops")
	}
}

func TestVersionCFasterThanA(t *testing.T) {
	a := runSmall(t, VersionA())
	c := runSmall(t, VersionC())
	if c.Exec >= a.Exec {
		t.Fatalf("C (%v) not faster than A (%v)", c.Exec, a.Exec)
	}
}

func TestSeeksCheaperInCThanB(t *testing.T) {
	b := runSmall(t, VersionB())
	c := runSmall(t, VersionC())
	bAgg := pablo.AggregateByOp(b.Trace)
	cAgg := pablo.AggregateByOp(c.Trace)
	if bAgg.Duration[pablo.OpSeek] <= cAgg.Duration[pablo.OpSeek]*10 {
		t.Fatalf("B seek time (%v) not >> C seek time (%v)",
			bAgg.Duration[pablo.OpSeek], cAgg.Duration[pablo.OpSeek])
	}
}

func TestQuadratureConservation(t *testing.T) {
	// All versions stage the same quadrature volume and reload it fully.
	d := smallEthylene()
	for _, v := range PaperVersions() {
		res, err := Run(context.Background(), core.Config{Seed: 1}, d, v)
		if err != nil {
			t.Fatal(err)
		}
		var staged int64
		for _, ev := range byOp(res.Trace, pablo.OpWrite) {
			if ev.File == "escat/quad.0" || ev.File == "escat/quad.1" {
				staged += ev.Size
			}
		}
		if want := 2 * d.QuadBytes(); staged != want {
			t.Fatalf("%s: staged %d bytes, want %d", v.ID, staged, want)
		}
		var reloaded int64
		for _, ev := range byOp(res.Trace, pablo.OpRead) {
			if ev.File == "escat/quad.0" || ev.File == "escat/quad.1" {
				reloaded += ev.Size
			}
		}
		if reloaded != staged {
			t.Fatalf("%s: reloaded %d of %d staged bytes", v.ID, reloaded, staged)
		}
	}
}

func TestRestartStagedSkipsPhase2(t *testing.T) {
	d := smallEthylene()
	v := VersionCCarbonMonoxide()
	res, err := Run(context.Background(), core.Config{Seed: 1}, d, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range byOp(res.Trace, pablo.OpWrite) {
		if ev.File == "escat/quad.0" {
			t.Fatal("staged restart still wrote quadrature data")
		}
	}
	// Reload still works off the preloaded file.
	var reloaded int64
	for _, ev := range byOp(res.Trace, pablo.OpRead) {
		if ev.File == "escat/quad.0" {
			reloaded += ev.Size
		}
	}
	if reloaded != d.QuadBytes() {
		t.Fatalf("reloaded %d bytes, want %d", reloaded, d.QuadBytes())
	}
	// No iomode: M_RECORD set directly in gopen.
	if n := len(byOp(res.Trace, pablo.OpIOMode)); n != 0 {
		t.Fatalf("staged C issued %d iomodes", n)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	d := smallEthylene()
	r1, err := Run(context.Background(), core.Config{Seed: 42}, d, VersionB())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), core.Config{Seed: 42}, d, VersionB())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Exec != r2.Exec {
		t.Fatalf("exec differs: %v vs %v", r1.Exec, r2.Exec)
	}
	if r1.Trace.Len() != r2.Trace.Len() {
		t.Fatalf("trace length differs: %d vs %d", r1.Trace.Len(), r2.Trace.Len())
	}
	for i, ev := range r1.Trace.Events() {
		if ev != r2.Trace.Events()[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev, r2.Trace.Events()[i])
		}
	}
}

func TestSeedChangesJitterNotStructure(t *testing.T) {
	d := smallEthylene()
	r1, err := Run(context.Background(), core.Config{Seed: 1}, d, VersionC())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), core.Config{Seed: 2}, d, VersionC())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace.Len() != r2.Trace.Len() {
		t.Fatalf("different seeds changed op count: %d vs %d", r1.Trace.Len(), r2.Trace.Len())
	}
	if r1.Exec == r2.Exec {
		t.Fatal("different seeds produced identical timing (jitter not applied?)")
	}
}

func TestRunOnRejectsNodeMismatch(t *testing.T) {
	d := smallEthylene()
	if _, err := Run(context.Background(), core.Config{Nodes: 4, Seed: 1}, d, VersionA()); err == nil {
		t.Fatal("node mismatch accepted")
	}
}

func TestPhaseWindowsOrdered(t *testing.T) {
	res := runSmall(t, VersionB())
	var prev analysis.PhaseWindow
	for i, w := range res.Phases {
		if w.End < w.Start {
			t.Fatalf("phase %d inverted: %+v", i, w)
		}
		if i > 0 && w.Start < prev.End {
			t.Fatalf("phase %d overlaps previous", i)
		}
		prev = w
	}
}

func TestTaxonomyMatchesPaperClasses(t *testing.T) {
	// The paper's section 6: phase one is compulsory I/O, ESCAT employs
	// data staging for its out-of-core computation, and final results
	// are compulsory output. The taxonomy classifier must recover those
	// classes from the trace alone.
	res := runSmall(t, VersionC())
	classes := analysis.ClassifyTaxonomy(res.Trace, res.Exec)
	byFile := map[string]analysis.Category{}
	for _, fc := range classes {
		byFile[fc.File] = fc.Category
	}
	for _, f := range []string{"escat/input.0", "escat/input.1", "escat/input.2"} {
		if byFile[f] != analysis.CompulsoryInput {
			t.Errorf("%s classified %v, want compulsory-input", f, byFile[f])
		}
	}
	for _, f := range []string{"escat/quad.0", "escat/quad.1"} {
		if byFile[f] != analysis.DataStaging {
			t.Errorf("%s classified %v, want data-staging", f, byFile[f])
		}
	}
	for _, f := range []string{"escat/out.0", "escat/out.1"} {
		if byFile[f] != analysis.ResultOutput {
			t.Errorf("%s classified %v, want result-output", f, byFile[f])
		}
	}
}

// byOp returns the events of one operation type, in capture order.
func byOp(tr *pablo.Trace, op pablo.Op) []pablo.Event {
	return tr.Filter(func(ev pablo.Event) bool { return ev.Op == op }).Events()
}
