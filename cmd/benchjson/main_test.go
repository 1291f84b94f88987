package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: paragonio
cpu: Intel(R) Xeon(R) CPU
BenchmarkTable1ESCATModes-8   	       1	 142000000 ns/op	        12.30 eth.open_cnt	  512 B/op	       9 allocs/op
BenchmarkKernelEventDispatch-8	 5204425	       230.5 ns/op	      48 B/op	       1 allocs/op
BenchmarkShardedCarbonMonoxide/shards=1-8         	       1	1400000000 ns/op
PASS
ok  	paragonio	12.345s
pkg: paragonio/internal/sim
BenchmarkHeapPush	 1000000	      55.0 ns/op
PASS
ok  	paragonio/internal/sim	1.655s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "Intel(R) Xeon(R) CPU" {
		t.Fatalf("host fields wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkTable1ESCATModes-8" || b.Package != "paragonio" {
		t.Fatalf("first benchmark: %+v", b)
	}
	if b.Iterations != 1 || b.NsPerOp != 142000000 {
		t.Fatalf("first benchmark numbers: %+v", b)
	}
	if b.BPerOp == nil || *b.BPerOp != 512 || b.AllocsPerOp == nil || *b.AllocsPerOp != 9 {
		t.Fatalf("first benchmark memstats: %+v", b)
	}
	if got := b.Metrics["eth.open_cnt"]; got != 12.30 {
		t.Fatalf("custom metric = %v, want 12.30", got)
	}

	if b := rep.Benchmarks[1]; b.NsPerOp != 230.5 || b.Iterations != 5204425 {
		t.Fatalf("second benchmark: %+v", b)
	}
	if b := rep.Benchmarks[2]; !strings.Contains(b.Name, "shards=1") || b.NsPerOp != 1.4e9 {
		t.Fatalf("sub-benchmark: %+v", b)
	}
	if b := rep.Benchmarks[3]; b.Package != "paragonio/internal/sim" || b.BPerOp != nil {
		t.Fatalf("cross-package benchmark: %+v", b)
	}

	if rep.SuiteSeconds != 14.0 {
		t.Fatalf("suite wall clock = %v, want 14.0", rep.SuiteSeconds)
	}
	if len(rep.Packages) != 2 || rep.Packages[1].Seconds != 1.655 {
		t.Fatalf("package times: %+v", rep.Packages)
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out, "2026-08-05", ""); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Date != "2026-08-05" {
		t.Fatalf("date = %q", rep.Date)
	}
	if len(rep.Benchmarks) != 4 || rep.SuiteSeconds != 14.0 {
		t.Fatalf("round-trip lost data: %+v", rep)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("no benchmarks here\n"), &out, "2026-08-05", ""); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRunOnlyFilter pins the -only selection: kept names survive with
// the -GOMAXPROCS suffix intact, and a typo is rejected with the valid
// base-name list, in the same shape as iotables -only.
func TestRunOnlyFilter(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out, "2026-08-05", "BenchmarkKernelEventDispatch"); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("-only filtered everything out")
	}
	for _, b := range rep.Benchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkKernelEventDispatch") {
			t.Errorf("unexpected benchmark %q survived the filter", b.Name)
		}
	}
	out.Reset()
	err := run(strings.NewReader(sampleOutput), &out, "2026-08-05", "BenchmarkTypo")
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "BenchmarkTypo" (valid: `) {
		t.Fatalf("typo error = %v", err)
	}
}

// TestDiffReports pins the -diff semantics: shared benchmarks get a
// delta row, additions/removals are labeled, and only regressions past
// the threshold are returned.
func TestDiffReports(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	oldRep := &Report{
		SuiteSeconds: 10,
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA-8", Package: "p", NsPerOp: 100, AllocsPerOp: f(1)},
			{Name: "BenchmarkB-8", Package: "p", NsPerOp: 200},
			{Name: "BenchmarkGone-8", Package: "p", NsPerOp: 50},
		},
	}
	newRep := &Report{
		SuiteSeconds: 11,
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA-8", Package: "p", NsPerOp: 105}, // +5%: fine
			{Name: "BenchmarkB-8", Package: "p", NsPerOp: 300}, // +50%: regressed
			{Name: "BenchmarkNew-8", Package: "p", NsPerOp: 70},
		},
	}
	var out bytes.Buffer
	regressed := diffReports(&out, oldRep, newRep, 0.2, 0)
	if len(regressed) != 1 || regressed[0] != "BenchmarkB-8" {
		t.Fatalf("regressed = %v, want [BenchmarkB-8]", regressed)
	}
	text := out.String()
	for _, want := range []string{"REGRESSED", "new", "removed", "suite wall clock"} {
		if !strings.Contains(text, want) {
			t.Errorf("diff output missing %q:\n%s", want, text)
		}
	}
	// A looser threshold clears the exit condition.
	if regressed := diffReports(&bytes.Buffer{}, oldRep, newRep, 0.6, 0); len(regressed) != 0 {
		t.Fatalf("threshold 0.6 still flags %v", regressed)
	}
	// A noise floor above the regressed benchmark's baseline mutes it.
	var muted bytes.Buffer
	if regressed := diffReports(&muted, oldRep, newRep, 0.2, 250); len(regressed) != 0 {
		t.Fatalf("floor 250 still flags %v", regressed)
	}
	if !strings.Contains(muted.String(), "(noise floor)") {
		t.Errorf("muted diff output missing the noise-floor mark:\n%s", muted.String())
	}
}

// TestDiffSameReportIsClean pins that a report diffed against itself
// reports no regressions at any threshold.
func TestDiffSameReportIsClean(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if regressed := diffReports(&bytes.Buffer{}, rep, rep, 0, 0); len(regressed) != 0 {
		t.Fatalf("self-diff flags %v", regressed)
	}
}

// TestDiffSaysWhatItCompared pins the two lines that make an empty
// comparison visible: the count of rows both reports share, and a note
// naming both GOMAXPROCS values when they differ. Neither changes the
// exit condition.
func TestDiffSaysWhatItCompared(t *testing.T) {
	oldRep := &Report{GOMAXPROCS: 2, Benchmarks: []Benchmark{
		{Name: "BenchmarkA-2", Package: "p", NsPerOp: 100},
		{Name: "BenchmarkB-2", Package: "p", NsPerOp: 100},
	}}
	same := &Report{GOMAXPROCS: 2, Benchmarks: []Benchmark{
		{Name: "BenchmarkA-2", Package: "p", NsPerOp: 100},
	}}
	var out bytes.Buffer
	diffReports(&out, oldRep, same, 0.2, 0)
	if !strings.Contains(out.String(), "compared 1 benchmark(s) present in both reports") {
		t.Errorf("same-GOMAXPROCS diff does not count its one shared row:\n%s", out.String())
	}
	if strings.Contains(out.String(), "gomaxprocs differs") {
		t.Errorf("same-GOMAXPROCS diff reports a GOMAXPROCS difference:\n%s", out.String())
	}

	wider := &Report{GOMAXPROCS: 8, Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", Package: "p", NsPerOp: 900},
	}}
	out.Reset()
	if regressed := diffReports(&out, oldRep, wider, 0.2, 0); len(regressed) != 0 {
		t.Fatalf("unmatched rows flagged as regressed: %v", regressed)
	}
	for _, want := range []string{
		"gomaxprocs differs: old report 2, new report 8",
		"compared 0 benchmark(s) present in both reports",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}
}
