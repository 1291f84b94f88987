// Command iosim runs one application version on the simulated Paragon
// XP/S and prints its I/O characterization: execution time, aggregate
// per-operation shares (the paper's Tables 2/3/5 accounting), request-
// size distributions, and per-phase activity.
//
// Usage:
//
//	iosim -app escat -dataset ethylene -version C [-seed 1] [-trace out.sddf]
//	iosim -app prism -version A
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"paragonio/internal/analysis"
	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/policy"
	"paragonio/internal/report"
)

func main() {
	var (
		app     = flag.String("app", "escat", "application: escat or prism")
		dataset = flag.String("dataset", "ethylene", "escat dataset: ethylene or co")
		version = flag.String("version", "C", "code version (escat: A A2 B1 B2 B3 B C; prism: A B C)")
		seed    = flag.Int64("seed", 1, "workload random seed")
		traceTo = flag.String("trace", "", "write the SDDF event trace to this file")
		advise  = flag.Bool("advise", false, "run the access-pattern advisor on the trace")
	)
	flag.Parse()
	if err := run(*app, *dataset, *version, *seed, *traceTo, *advise); err != nil {
		fmt.Fprintln(os.Stderr, "iosim:", err)
		os.Exit(1)
	}
}

func run(app, dataset, version string, seed int64, traceTo string, advise bool) error {
	var res *core.Result
	var err error
	switch strings.ToLower(app) {
	case "escat":
		ds, ok := escat.LookupDataset(dataset)
		if !ok {
			return fmt.Errorf("unknown escat dataset %q", dataset)
		}
		v, ok := escat.LookupVersion(version, dataset)
		if !ok {
			return fmt.Errorf("unknown escat version %q", version)
		}
		res, err = escat.Run(ds, v, seed)
	case "prism":
		v, ok := prism.LookupVersion(version)
		if !ok {
			return fmt.Errorf("unknown prism version %q", version)
		}
		res, err = prism.Run(prism.TestProblem(), v, seed)
	default:
		return fmt.Errorf("unknown app %q", app)
	}
	if err != nil {
		return err
	}
	printResult(res)
	if advise {
		fmt.Println()
		if err := policy.WriteAdvice(os.Stdout, policy.Classify(res.Trace),
			policy.Options{}, policy.CacheOptions{}); err != nil {
			return err
		}
	}
	if traceTo != "" {
		f, err := os.Create(traceTo)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pablo.WriteTrace(f, res.Trace); err != nil {
			return err
		}
		fmt.Printf("\ntrace: %d events written to %s\n", res.Trace.Len(), traceTo)
	}
	return nil
}

func printResult(res *core.Result) {
	fmt.Printf("%s version %s on %d nodes\n", res.App, res.Version, res.Nodes)
	fmt.Printf("execution time: %.1f s (virtual)\n", res.Exec.Seconds())
	fmt.Printf("summed I/O time: %.1f s across nodes (%.2f%% of node-time)\n\n",
		res.IOTime().Seconds(), res.IOPercent())

	rows := [][]string{}
	for _, s := range analysis.IOTimeShares(res.Trace) {
		rows = append(rows, []string{
			s.Op.String(),
			fmt.Sprintf("%.2f", s.Percent),
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.1f", s.Total.Seconds()),
		})
	}
	report.Table(os.Stdout, "Aggregate I/O time by operation",
		[]string{"Operation", "% of I/O time", "count", "total (s)"}, rows)

	fmt.Println()
	reads := analysis.SizeCDFOf(res.Trace, pablo.OpRead)
	writes := analysis.SizeCDFOf(res.Trace, pablo.OpWrite)
	fmt.Printf("reads  <= 2KB: %5.1f%% of requests, %5.1f%% of data\n",
		100*reads.FracOpsBelow(2048), 100*reads.FracDataBelow(2048))
	fmt.Printf("writes <= 2KB: %5.1f%% of requests, %5.1f%% of data\n",
		100*writes.FracOpsBelow(2048), 100*writes.FracDataBelow(2048))

	fmt.Println()
	rows = rows[:0]
	for _, ph := range res.Phases {
		agg := analysis.PhaseStats(res.Trace, ph)
		rows = append(rows, []string{
			ph.Name,
			fmt.Sprintf("%.0f-%.0f s", ph.Start.Seconds(), ph.End.Seconds()),
			fmt.Sprintf("%d", agg.TotalCount()),
			fmt.Sprintf("%.1f", agg.TotalDuration().Seconds()),
			fmt.Sprintf("%.1f MB", float64(agg.BytesRead)/1e6),
			fmt.Sprintf("%.1f MB", float64(agg.BytesWritten)/1e6),
		})
	}
	report.Table(os.Stdout, "Per-phase I/O",
		[]string{"Phase", "window", "ops", "I/O time (s)", "read", "written"}, rows)

	b := analysis.IONodeBalance(res.IONodes)
	fmt.Printf("\nI/O node balance: %d nodes, %.1f MB moved, hot-spot factor %.2f, bytes CV %.2f, %d idle\n\n",
		b.IONodes, float64(b.TotalBytes)/1e6, b.MaxOverMean, b.BytesCV, b.Idle)
	labels := make([]string, len(res.IONodes))
	values := make([]float64, len(res.IONodes))
	for i, s := range res.IONodes {
		labels[i] = fmt.Sprintf("io%02d", i)
		values[i] = float64(s.BytesMoved) / 1e6
	}
	report.HBar(os.Stdout, "Per-I/O-node data moved (MB)", labels, values, 40)
}
