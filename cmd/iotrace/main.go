// Command iotrace analyzes SDDF trace files produced by iosim -trace,
// playing the role of Pablo's offline analysis graphs: statistical
// summaries, per-operation tables, request-size CDFs, timeline plots,
// access-pattern advice, and CSV export.
//
// Usage:
//
//	iotrace summary  trace.sddf              # aggregate + per-file lifetimes
//	iotrace cdf      trace.sddf [-op read]   # request-size CDF plot
//	iotrace timeline trace.sddf [-op seek]   # size/duration scatter over time
//	iotrace timeline trace.sddf -op cache-dirty      # tag-2 dirty-queue depth
//	iotrace cdf      trace.sddf -op cache-hit-ratio  # tag-2 hit-ratio CDF
//	iotrace windows  trace.sddf [-width 10s] # time-window summaries
//	iotrace regions  trace.sddf -file f [-rwidth 65536]  # file-region summaries
//	iotrace taxonomy trace.sddf              # Miller-Katz I/O classification
//	iotrace advise   trace.sddf              # file-system policy advice
//	iotrace replay   trace.sddf [-ionodes 32] [-gaps]    # replay on another machine
//	iotrace csv      trace.sddf              # events as CSV
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/policy"
	"paragonio/internal/replay"
	"paragonio/internal/report"
	"paragonio/internal/sddf"
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

	tr, samples, err := load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotrace:", err)
		os.Exit(1)
	}
	switch cmd {
	case "summary":
		err = summary(tr)
	case "cdf":
		if isCacheOp(*opName) {
			err = cacheCDF(os.Stdout, samples, *opName)
		} else {
			err = cdf(tr, *opName)
		}
	case "timeline":
		if isCacheOp(*opName) {
			err = cacheTimeline(os.Stdout, samples, *opName)
		} else {
			err = timeline(tr, *opName)
		}
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

// load reads a trace in either supported encoding, detected by magic:
// the generic self-describing stream or the SDDF text format. From a
// generic stream the tag-2 cache-sample records ride along for the
// cache-* plot ops; other foreign records are ignored, and the text
// format carries no samples.
func load(path string) (*pablo.Trace, []pablo.CacheSample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case bytes.HasPrefix(data, []byte("#SDDF-G")):
		tr, others, err := pablo.ReadSDDF(sddf.NewReader(bytes.NewReader(data)))
		if err != nil {
			return nil, nil, err
		}
		var samples []pablo.CacheSample
		for _, rec := range others {
			if rec.Desc == nil || rec.Desc.Name != "cache-sample" {
				continue
			}
			s, err := pablo.CacheSampleFromRecord(rec)
			if err != nil {
				return nil, nil, err
			}
			samples = append(samples, s)
		}
		return tr, samples, nil
	default:
		tr, err := pablo.ReadTrace(bytes.NewReader(data))
		return tr, nil, err
	}
}

// isCacheOp reports whether the -op value names a tag-2 cache series
// rather than an io-event operation.
func isCacheOp(op string) bool {
	return op == "cache-dirty" || op == "cache-hit-ratio"
}

// instant is one sampling instant aggregated across I/O nodes.
type instant struct {
	t          time.Duration
	dirty      float64
	hits       float64 // cumulative, summed over I/O nodes
	misses     float64
	cliHits    float64 // tier-wide (identical on every record of the instant)
	cliMisses  float64
	haveClient bool
}

// instants folds the per-I/O-node cache-sample records into one point
// per sampling instant, in time order (the records arrive time-ordered).
func instants(samples []pablo.CacheSample) []instant {
	var out []instant
	for _, s := range samples {
		if len(out) == 0 || out[len(out)-1].t != s.T {
			out = append(out, instant{t: s.T})
		}
		in := &out[len(out)-1]
		in.dirty += float64(s.Dirty)
		in.hits += float64(s.Hits)
		in.misses += float64(s.Misses)
		// The client-tier fields are tier-wide, so take one record's.
		in.cliHits = float64(s.ClientHits)
		in.cliMisses = float64(s.ClientMisses)
		if s.ClientHits != 0 || s.ClientMisses != 0 {
			in.haveClient = true
		}
	}
	return out
}

func ratio(h, m float64) float64 {
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// cacheTimeline plots a tag-2 series over execution time: the aggregate
// dirty-queue depth, or the cumulative hit ratio (with a second series
// for the client tier when the stream carries it).
func cacheTimeline(w io.Writer, samples []pablo.CacheSample, op string) error {
	ins := instants(samples)
	if len(ins) == 0 {
		return fmt.Errorf("no cache-sample records in the stream (need a generic SDDF stream with tag-2 records)")
	}
	var series []report.Series
	plot := report.Plot{XLabel: "execution time (s)", Width: 72, Height: 16}
	switch op {
	case "cache-dirty":
		plot.Title = "dirty-queue depth over execution time"
		plot.YLabel = "dirty blocks (all I/O nodes)"
		s := report.Series{Name: "dirty", Glyph: '*', Line: true}
		for _, in := range ins {
			s.Points = append(s.Points, report.Point{X: in.t.Seconds(), Y: in.dirty})
		}
		series = append(series, s)
	default: // cache-hit-ratio
		plot.Title = "cache hit ratio over execution time"
		plot.YLabel = "cumulative hit ratio"
		ion := report.Series{Name: "io-node tier", Glyph: 'i', Line: true}
		cli := report.Series{Name: "client tier", Glyph: 'c', Line: true}
		haveClient := false
		for _, in := range ins {
			ion.Points = append(ion.Points, report.Point{X: in.t.Seconds(), Y: ratio(in.hits, in.misses)})
			cli.Points = append(cli.Points, report.Point{X: in.t.Seconds(), Y: ratio(in.cliHits, in.cliMisses)})
			haveClient = haveClient || in.haveClient
		}
		series = append(series, ion)
		if haveClient {
			series = append(series, cli)
		}
	}
	return plot.Render(w, series)
}

// cacheCDF plots the distribution of a tag-2 series across sampling
// instants: what fraction of the run sat at or below a given depth or
// ratio.
func cacheCDF(w io.Writer, samples []pablo.CacheSample, op string) error {
	ins := instants(samples)
	if len(ins) == 0 {
		return fmt.Errorf("no cache-sample records in the stream (need a generic SDDF stream with tag-2 records)")
	}
	vals := make([]float64, len(ins))
	plot := report.Plot{YLabel: "CDF", Width: 72, Height: 18}
	if op == "cache-dirty" {
		plot.Title = "CDF of dirty-queue depth across sampling instants"
		plot.XLabel = "dirty blocks (all I/O nodes)"
		for i, in := range ins {
			vals[i] = in.dirty
		}
	} else {
		plot.Title = "CDF of io-node hit ratio across sampling instants"
		plot.XLabel = "cumulative hit ratio"
		for i, in := range ins {
			vals[i] = ratio(in.hits, in.misses)
		}
	}
	sort.Float64s(vals)
	s := report.Series{Name: op, Glyph: '*', Line: true}
	for i, v := range vals {
		s.Points = append(s.Points, report.Point{X: v, Y: float64(i+1) / float64(len(vals))})
	}
	return plot.Render(w, []report.Series{s})
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
	toSeries := func(name string, glyph rune, pts []struct{ X, F float64 }) report.Series {
		s := report.Series{Name: name, Glyph: glyph, Line: true}
		for _, p := range pts {
			s.Points = append(s.Points, report.Point{X: p.X, Y: p.F})
		}
		return s
	}
	var opsPts, dataPts []struct{ X, F float64 }
	for _, p := range c.Ops.Points() {
		opsPts = append(opsPts, struct{ X, F float64 }{p.X, p.F})
	}
	for _, p := range c.Data.Points() {
		dataPts = append(dataPts, struct{ X, F float64 }{p.X, p.F})
	}
	plot := report.Plot{
		Title:  fmt.Sprintf("CDF of %s request sizes", op),
		XLabel: "bytes", YLabel: "CDF", XLog: true, Width: 72, Height: 18,
	}
	return plot.Render(os.Stdout, []report.Series{
		toSeries("fraction of requests", 'r', opsPts),
		toSeries("fraction of data", 'd', dataPts),
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
	s := report.Series{Name: op.String(), Glyph: '*'}
	for _, p := range pts {
		s.Points = append(s.Points, report.Point{X: p.T.Seconds(), Y: p.V})
	}
	plot := report.Plot{
		Title:  fmt.Sprintf("%s over execution time", op),
		XLabel: "execution time (s)", YLabel: yLabel, YLog: yLabel == "bytes",
		Width: 72, Height: 16,
	}
	return plot.Render(os.Stdout, []report.Series{s})
}

func windows(tr *pablo.Trace, width time.Duration) error {
	if width <= 0 {
		return fmt.Errorf("window width must be positive")
	}
	ws := pablo.TimeWindows(tr, width)
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
	rs := pablo.FileRegions(tr, file, width)
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
			ev.Mode,
		})
	}
	return report.CSV(os.Stdout, []string{"node", "op", "file", "offset", "size", "start_ns", "dur_ns", "mode"}, rows)
}
