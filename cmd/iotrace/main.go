// Command iotrace analyzes SDDF text traces (pablo.WriteTrace output, as
// written by iosim -trace and /v1/simulate with "sddf": true), playing
// the role of Pablo's offline analysis graphs: statistical summaries,
// per-operation tables, request-size CDFs, timeline plots, access-pattern
// advice, and CSV export.
//
// Usage:
//
//	iotrace summary  trace.sddf              # aggregate + per-file lifetimes
//	iotrace cdf      trace.sddf [-op read]   # request-size CDF plot
//	iotrace timeline trace.sddf [-op seek]   # size/duration scatter over time
//	iotrace windows  trace.sddf [-width 10s] # time-window summaries
//	iotrace regions  trace.sddf -file f [-rwidth 65536]  # file-region summaries
//	iotrace taxonomy trace.sddf              # Miller-Katz I/O classification
//	iotrace advise   trace.sddf              # file-system policy advice
//	iotrace replay   trace.sddf [-ionodes 32] [-gaps]    # replay on another machine
//	iotrace csv      trace.sddf              # events as CSV
//
// windows and regions refuse a width that would need more than 65,536
// summaries; the error names the smallest width that fits.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/policy"
	"paragonio/internal/replay"
	"paragonio/internal/report"
)

func main() {
	if len(os.Args) < 3 {
		usage()
		os.Exit(2)
	}
	cmd, path := os.Args[1], os.Args[2]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	opName := fs.String("op", "read", "operation type for cdf/timeline")
	width := fs.Duration("width", 10*time.Second, "window width for windows")
	file := fs.String("file", "", "file name for regions")
	rwidth := fs.Int64("rwidth", 65536, "region width in bytes for regions")
	ionodes := fs.Int("ionodes", 0, "replay: target I/O node count (0 = paper's 16)")
	stripe := fs.Int64("stripe", 0, "replay: target stripe unit (0 = 64 KB)")
	gaps := fs.Bool("gaps", false, "replay: preserve inter-operation think time")
	fs.Parse(os.Args[3:])

	tr, err := load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotrace:", err)
		os.Exit(1)
	}
	switch cmd {
	case "summary":
		err = summary(tr)
	case "cdf":
		err = cdf(tr, *opName)
	case "timeline":
		err = timeline(tr, *opName)
	case "windows":
		err = windows(tr, *width)
	case "regions":
		err = regions(tr, *file, *rwidth)
	case "taxonomy":
		err = taxonomy(tr)
	case "advise":
		err = advise(tr)
	case "replay":
		err = replayCmd(tr, *ionodes, *stripe, *gaps)
	case "csv":
		err = csv(tr)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: iotrace <summary|cdf|timeline|windows|regions|taxonomy|advise|replay|csv> <trace.sddf> [flags]")
}

// load streams a trace file through the SDDF text codec.
func load(path string) (*pablo.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pablo.ReadTrace(f)
}

func summary(tr *pablo.Trace) error {
	start, end := tr.Span()
	fmt.Printf("%d events over %.1f s of virtual time; %d nodes active; total I/O time %.1f s\n\n",
		tr.Len(), (end - start).Seconds(), len(pablo.NodesActive(tr)), tr.TotalIOTime().Seconds())
	var rows [][]string
	for _, s := range analysis.IOTimeShares(tr) {
		rows = append(rows, []string{
			s.Op.String(), fmt.Sprintf("%.2f", s.Percent),
			fmt.Sprintf("%d", s.Count), fmt.Sprintf("%.2f", s.Total.Seconds()),
		})
	}
	if err := report.Table(os.Stdout, "Aggregate I/O time by operation",
		[]string{"Operation", "%", "count", "total (s)"}, rows); err != nil {
		return err
	}
	fmt.Println()
	life := pablo.FileLifetimes(tr)
	rows = rows[:0]
	for _, name := range report.SortedKeys(life) {
		s := life[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", s.Count[pablo.OpRead]),
			fmt.Sprintf("%.1f MB", float64(s.BytesRead)/1e6),
			fmt.Sprintf("%d", s.Count[pablo.OpWrite]),
			fmt.Sprintf("%.1f MB", float64(s.BytesWritten)/1e6),
			fmt.Sprintf("%.1f", s.OpenTime.Seconds()),
		})
	}
	return report.Table(os.Stdout, "File lifetime summaries",
		[]string{"File", "reads", "read", "writes", "written", "open (s)"}, rows)
}

func cdf(tr *pablo.Trace, opName string) error {
	op, err := pablo.ParseOp(opName)
	if err != nil {
		return err
	}
	c := analysis.SizeCDFOf(tr, op)
	if c.Ops.Empty() {
		return fmt.Errorf("no %s events with data", op)
	}
	plot := report.Plot{
		Title:  fmt.Sprintf("CDF of %s request sizes", op),
		XLabel: "bytes", YLabel: "CDF", XLog: true, Width: 72, Height: 18,
	}
	return plot.Render(os.Stdout, []report.Series{
		analysis.CDFSeries("fraction of requests", 'r', c.Ops),
		analysis.CDFSeries("fraction of data", 'd', c.Data),
	})
}

func timeline(tr *pablo.Trace, opName string) error {
	op, err := pablo.ParseOp(opName)
	if err != nil {
		return err
	}
	var pts []analysis.TimelinePoint
	yLabel := "bytes"
	if op == pablo.OpRead || op == pablo.OpWrite {
		pts = analysis.SizeTimeline(tr, op)
	} else {
		pts = analysis.DurationTimeline(tr, op)
		yLabel = "seconds"
	}
	if len(pts) == 0 {
		return fmt.Errorf("no %s events", op)
	}
	plot := report.Plot{
		Title:  fmt.Sprintf("%s over execution time", op),
		XLabel: "execution time (s)", YLabel: yLabel, YLog: yLabel == "bytes",
		Width: 72, Height: 16,
	}
	return plot.Render(os.Stdout, []report.Series{analysis.TimelineSeries(op.String(), '*', pts)})
}

func windows(tr *pablo.Trace, width time.Duration) error {
	if width <= 0 {
		return fmt.Errorf("window width must be positive")
	}
	ws, err := pablo.TimeWindows(tr, width)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, w := range ws {
		if w.TotalCount() == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f-%.0f", w.Start.Seconds(), w.End.Seconds()),
			fmt.Sprintf("%d", w.TotalCount()),
			fmt.Sprintf("%.2f", w.TotalDuration().Seconds()),
			fmt.Sprintf("%.2f MB", float64(w.BytesRead)/1e6),
			fmt.Sprintf("%.2f MB", float64(w.BytesWritten)/1e6),
		})
	}
	return report.Table(os.Stdout, fmt.Sprintf("Time-window summaries (%v windows)", width),
		[]string{"Window (s)", "ops", "I/O time (s)", "read", "written"}, rows)
}

func taxonomy(tr *pablo.Trace) error {
	_, end := tr.Span()
	classes := analysis.ClassifyTaxonomy(tr, end)
	var rows [][]string
	for _, fc := range classes {
		rows = append(rows, []string{
			fc.File, fc.Category.String(),
			fmt.Sprintf("%.2f MB", float64(fc.BytesRead)/1e6),
			fmt.Sprintf("%.2f MB", float64(fc.BytesWritten)/1e6),
			fmt.Sprintf("%.1f s", fc.IOTime.Seconds()),
			fc.Why,
		})
	}
	if err := report.Table(os.Stdout, "High-level I/O classification (Miller & Katz taxonomy)",
		[]string{"File", "class", "read", "written", "I/O time", "evidence"}, rows); err != nil {
		return err
	}
	fmt.Println()
	totals := analysis.TaxonomyTotals(classes)
	rows = rows[:0]
	for _, cat := range []analysis.Category{analysis.CompulsoryInput, analysis.DataStaging,
		analysis.Checkpointing, analysis.PeriodicOutput, analysis.ResultOutput, analysis.Other} {
		tc, ok := totals[cat]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			cat.String(),
			fmt.Sprintf("%.2f MB", float64(tc.BytesRead+tc.BytesWritten)/1e6),
			fmt.Sprintf("%.1f s", tc.IOTime.Seconds()),
		})
	}
	return report.Table(os.Stdout, "Per-class totals",
		[]string{"class", "bytes", "I/O time"}, rows)
}

func advise(tr *pablo.Trace) error {
	return policy.WriteAdvice(os.Stdout, policy.Classify(tr), policy.Options{}, policy.CacheOptions{})
}

func regions(tr *pablo.Trace, file string, width int64) error {
	if file == "" {
		return fmt.Errorf("regions: -file is required (one of %v)", tr.Files())
	}
	if width <= 0 {
		return fmt.Errorf("regions: -rwidth must be positive")
	}
	rs, err := pablo.FileRegions(tr, file, width)
	if err != nil {
		return fmt.Errorf("regions: %w", err)
	}
	if rs == nil {
		return fmt.Errorf("regions: no spatial activity on %q", file)
	}
	var rows [][]string
	for _, r := range rs {
		if r.TotalCount() == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d-%d", r.Lo, r.Hi),
			fmt.Sprintf("%d", r.Count[pablo.OpRead]),
			fmt.Sprintf("%.2f MB", float64(r.BytesRead)/1e6),
			fmt.Sprintf("%d", r.Count[pablo.OpWrite]),
			fmt.Sprintf("%.2f MB", float64(r.BytesWritten)/1e6),
			fmt.Sprintf("%d", r.Count[pablo.OpSeek]),
		})
	}
	return report.Table(os.Stdout,
		fmt.Sprintf("File-region summaries for %s (%d-byte regions)", file, width),
		[]string{"Region (bytes)", "reads", "read", "writes", "written", "seeks"}, rows)
}

func replayCmd(tr *pablo.Trace, ionodes int, stripe int64, gaps bool) error {
	out, err := replay.Replay(tr, replay.Config{
		Platform:     core.Config{IONodes: ionodes, StripeUnit: stripe},
		PreserveGaps: gaps,
	})
	if err != nil {
		return err
	}
	target := "the paper's machine (16 I/O nodes, 64 KB stripes)"
	if ionodes != 0 || stripe != 0 {
		target = fmt.Sprintf("%d I/O nodes, %d KB stripes",
			pick(ionodes, 16), pick64(stripe, 65536)>>10)
	}
	fmt.Printf("replayed %d reads + %d writes on %s\n\n", out.Reads, out.Writes, target)
	rows := [][]string{
		{"data-operation time", fmtSec(out.OriginalDataTime), fmtSec(out.ReplayDataTime)},
		{"span", fmtSec(out.OriginalSpan), fmtSec(out.ReplaySpan)},
	}
	if err := report.Table(os.Stdout, "original vs replay",
		[]string{"quantity", "original", "replay"}, rows); err != nil {
		return err
	}
	fmt.Printf("\ndata-path speedup on the target machine: %.2fx\n", out.Speedup())
	return nil
}

func pick(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func pick64(v, def int64) int64 {
	if v == 0 {
		return def
	}
	return v
}

func fmtSec(d time.Duration) string { return fmt.Sprintf("%.2f s", d.Seconds()) }

func csv(tr *pablo.Trace) error {
	rows := make([][]string, 0, tr.Len())
	for _, ev := range tr.Events() {
		rows = append(rows, []string{
			fmt.Sprintf("%d", ev.Node), ev.Op.String(), ev.File,
			fmt.Sprintf("%d", ev.Offset), fmt.Sprintf("%d", ev.Size),
			fmt.Sprintf("%d", int64(ev.Start)), fmt.Sprintf("%d", int64(ev.Duration)),
			ev.Mode.String(),
		})
	}
	return report.CSV(os.Stdout, []string{"node", "op", "file", "offset", "size", "start_ns", "dur_ns", "mode"}, rows)
}
