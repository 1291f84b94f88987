// Command benchjson converts `go test -bench` output into a
// machine-readable JSON benchmark record — the format behind the
// repository's BENCH_<date>.json perf-trajectory files (see `make
// bench-json` and docs/PERFORMANCE.md).
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem -benchtime=1x ./... > bench.out
//	go run ./cmd/benchjson -o BENCH_2026-08-05.json < bench.out
//	go run ./cmd/benchjson -only BenchmarkClientTierHit,BenchmarkKernel < bench.out
//	go run ./cmd/benchjson -diff BENCH_2026-08-05.json BENCH_2026-08-08.json
//	go run ./cmd/benchjson -diff -threshold 0.5 old.json new.json
//	go run ./cmd/benchjson -pairs pairs.jsonl
//
// Besides ns/op, B/op and allocs/op it keeps every custom metric the
// benchmarks report (the artifact benchmarks attach their headline
// measured quantities), and records each package's wall-clock "ok"
// time, whose sum is the suite wall clock.
//
// -diff compares two recorded reports benchmark-by-benchmark on ns/op
// and exits nonzero when any benchmark regressed beyond -threshold —
// the perf-trajectory gate CI runs (non-blocking there: -benchtime=1x
// numbers are single-iteration samples and carry real noise).
//
// -pairs folds the tagged end-to-end result lines that
// scripts/bench-pairs.sh writes into one JSON line per workload and
// metric (or, with -md, one Markdown table row): both sides' medians and
// quartiles, the median delta, the pairs the change won, an exact
// two-sided sign-test p, and a verdict under the claim rule of
// docs/PERFORMANCE.md, with the directions and bounds of the
// BENCHMARK.json in the current directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"paragonio/internal/cliflags"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with its -GOMAXPROCS suffix intact
	// (two records with different suffixes are different measurements).
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BPerOp / AllocsPerOp are present only under -benchmem.
	BPerOp      *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other reported unit (custom b.ReportMetric
	// values such as the artifact benchmarks' measured quantities).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// PackageTime is one package's wall-clock "ok" line.
type PackageTime struct {
	Package string  `json:"package"`
	Seconds float64 `json:"seconds"`
}

// Report is the BENCH_<date>.json document.
type Report struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SuiteSeconds is the summed wall clock of every "ok <pkg> <t>s"
	// line — the end-to-end cost of the benchmark suite.
	SuiteSeconds float64       `json:"suite_seconds"`
	Packages     []PackageTime `json:"packages,omitempty"`
	Benchmarks   []Benchmark   `json:"benchmarks"`
}

// parse reads `go test -bench` output and builds the report skeleton
// (everything except the run date, which the caller stamps).
func parse(r io.Reader) (*Report, error) {
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "ok "):
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasSuffix(f[2], "s") {
				secs, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "s"), 64)
				if err == nil {
					rep.Packages = append(rep.Packages, PackageTime{Package: f[1], Seconds: secs})
					rep.SuiteSeconds += secs
				}
			}
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line, pkg)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %v (line %q)", err, line)
			}
			if b != nil {
				rep.Benchmarks = append(rep.Benchmarks, *b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one result line: name, iteration count, then
// (value, unit) pairs. Lines without an iteration count (e.g. a bare
// "BenchmarkFoo" printed under -v before the result) are skipped.
func parseBenchLine(line, pkg string) (*Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 3 {
		return nil, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil, nil
	}
	b := &Benchmark{Name: f[0], Package: pkg, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", f[i])
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			v := val
			b.BPerOp = &v
		case "allocs/op":
			v := val
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = val
		}
	}
	return b, nil
}

func run(in io.Reader, out io.Writer, date, only string) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines on stdin")
	}
	if err := filterOnly(rep, only); err != nil {
		return err
	}
	rep.Date = date
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// filterOnly applies the -only selection to the parsed report. Names
// match the benchmark base name (the -GOMAXPROCS suffix stripped), and
// unknown names are rejected with the valid list, like iotables -only.
func filterOnly(rep *Report, only string) error {
	if only == "" {
		return nil
	}
	base := func(name string) string {
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				return name[:i]
			}
		}
		return name
	}
	valid := make([]string, 0, len(rep.Benchmarks))
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if n := base(b.Name); !seen[n] {
			seen[n] = true
			valid = append(valid, n)
		}
	}
	wanted, err := cliflags.Only(only, "benchmark", valid)
	if err != nil {
		return err
	}
	kept := rep.Benchmarks[:0]
	for _, b := range rep.Benchmarks {
		if wanted[base(b.Name)] {
			kept = append(kept, b)
		}
	}
	rep.Benchmarks = kept
	return nil
}

// loadReport reads one BENCH_<date>.json document.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	return &rep, nil
}

// diffReports prints the old-vs-new ns/op delta for every benchmark the
// two reports share (plus additions and removals) and returns the names
// that regressed beyond threshold (a fraction: 0.2 = 20% slower).
// Benchmarks whose baseline ns/op is below floor are reported but never
// flagged: a -benchtime=1x sample of a microsecond-scale benchmark is a
// single timer read, and its run-to-run swing exceeds any threshold a
// gate could hold.
//
// Rows match by name, -GOMAXPROCS suffix included, so the output says
// how many rows it compared and, when the two reports were recorded at
// different GOMAXPROCS, names both values: such reports share no row,
// and an empty comparison is not a clean one.
func diffReports(w io.Writer, oldRep, newRep *Report, threshold, floor float64) []string {
	key := func(b Benchmark) string { return b.Package + "." + b.Name }
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[key(b)] = b
	}
	if oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Fprintf(w, "gomaxprocs differs: old report %d, new report %d; benchmark names carry it, so their rows do not match\n",
			oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}
	var regressed []string
	matched := make(map[string]bool)
	fmt.Fprintf(w, "%-58s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[key(nb)]
		if !ok {
			fmt.Fprintf(w, "%-58s %14s %14.1f %9s\n", nb.Name, "-", nb.NsPerOp, "new")
			continue
		}
		matched[key(nb)] = true
		if ob.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-58s %14.1f %14.1f %9s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, "n/a")
			continue
		}
		delta := nb.NsPerOp/ob.NsPerOp - 1
		mark := ""
		if ob.NsPerOp < floor {
			if delta > threshold {
				mark = "  (noise floor)"
			}
		} else if delta > threshold {
			mark = "  REGRESSED"
			regressed = append(regressed, nb.Name)
		}
		fmt.Fprintf(w, "%-58s %14.1f %14.1f %+8.1f%%%s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, delta*100, mark)
	}
	for _, ob := range oldRep.Benchmarks {
		if !matched[key(ob)] {
			fmt.Fprintf(w, "%-58s %14.1f %14s %9s\n", ob.Name, ob.NsPerOp, "-", "removed")
		}
	}
	fmt.Fprintf(w, "compared %d benchmark(s) present in both reports\n", len(matched))
	if oldRep.SuiteSeconds > 0 && newRep.SuiteSeconds > 0 {
		fmt.Fprintf(w, "suite wall clock: %.1fs -> %.1fs (%+.1f%%)\n",
			oldRep.SuiteSeconds, newRep.SuiteSeconds,
			100*(newRep.SuiteSeconds/oldRep.SuiteSeconds-1))
	}
	if len(regressed) > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed beyond +%.0f%%\n",
			len(regressed), threshold*100)
	}
	return regressed
}

func main() {
	outPath := flag.String("o", "", "output file (default stdout)")
	date := flag.String("date", time.Now().Format("2006-01-02"), "run date stamped into the report")
	only := flag.String("only", "", "comma-separated benchmark base names to keep (e.g. BenchmarkKernel,BenchmarkClientTierHit)")
	diff := flag.Bool("diff", false, "compare two recorded reports: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 0.2, "with -diff: exit nonzero when any benchmark's ns/op grew by more than this fraction")
	floor := flag.Float64("floor", 0, "with -diff: ignore benchmarks whose baseline ns/op is below this (1x samples of micro-benchmarks are timer noise)")
	pairs := flag.String("pairs", "", "fold the tagged result lines of scripts/bench-pairs.sh in this file")
	md := flag.Bool("md", false, "with -pairs: print a Markdown table instead of JSON lines")
	flag.Parse()

	if *pairs != "" {
		if err := runPairs(os.Stdout, *pairs, *md); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff wants exactly two files: old.json new.json")
			os.Exit(2)
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressed := diffReports(os.Stdout, oldRep, newRep, *threshold, *floor); len(regressed) > 0 {
			os.Exit(1)
		}
		return
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := run(os.Stdin, out, *date, *only); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outPath != "" {
		fmt.Printf("wrote %s\n", *outPath)
	}
}
