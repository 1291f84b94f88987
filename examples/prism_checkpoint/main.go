// prism_checkpoint runs the PRISM Navier-Stokes workload (version C) and
// renders its write timeline — the five checkpoint bursts of Figure 9 —
// plus the per-phase I/O breakdown and the time-window summary around
// one checkpoint.
//
//	go run ./examples/prism_checkpoint
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/apps/prism"
	"paragonio/internal/pablo"
	"paragonio/internal/report"
)

func main() {
	d := prism.TestProblem()
	fmt.Printf("PRISM %s: %d elements, Re=%d, %d steps, checkpoint every %d steps, %d nodes\n\n",
		d.Name, d.Elements, d.Reynolds, d.Steps, d.CheckpointEvery, d.Nodes)

	res, err := prism.Run(d, prism.VersionC(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution time %.0f s; %d traced events\n\n", res.Exec.Seconds(), res.Trace.Len())

	// The write timeline: small measurement/history/statistics writes as
	// a continuous band, with %d-record checkpoint bursts above them.
	pts := analysis.SizeTimeline(res.Trace, pablo.OpWrite)
	series := report.Series{Name: "writes", Glyph: 'w'}
	for _, p := range pts {
		series.Points = append(series.Points, report.Point{X: p.T.Seconds(), Y: p.V})
	}
	plot := report.Plot{
		Title:  "Write sizes over execution time (the paper's Figure 9)",
		XLabel: "execution time (s)", YLabel: "bytes", YLog: true,
		Width: 76, Height: 16,
	}
	if err := plot.Render(os.Stdout, []report.Series{series}); err != nil {
		log.Fatal(err)
	}

	// Per-phase accounting.
	fmt.Println()
	var rows [][]string
	for _, ph := range res.Phases {
		agg := analysis.PhaseStats(res.Trace, ph)
		rows = append(rows, []string{
			ph.Name,
			fmt.Sprintf("%.0f-%.0f s", ph.Start.Seconds(), ph.End.Seconds()),
			fmt.Sprintf("%d", agg.TotalCount()),
			fmt.Sprintf("%.1f s", agg.TotalDuration().Seconds()),
			fmt.Sprintf("%.1f MB", float64(agg.BytesWritten)/1e6),
		})
	}
	if err := report.Table(os.Stdout, "Per-phase I/O",
		[]string{"Phase", "window", "ops", "I/O time", "written"}, rows); err != nil {
		log.Fatal(err)
	}

	// Zoom into the window around the third checkpoint with Pablo's
	// time-window summaries.
	fmt.Println()
	ws := pablo.TimeWindows(res.Trace, 100*time.Second)
	rows = rows[:0]
	for _, w := range ws {
		if w.Count[pablo.OpWrite] == 0 {
			continue
		}
		marker := ""
		if w.BytesWritten > 5<<20 {
			marker = "  <-- checkpoint burst"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f-%.0f", w.Start.Seconds(), w.End.Seconds()),
			fmt.Sprintf("%d", w.Count[pablo.OpWrite]),
			fmt.Sprintf("%.2f MB", float64(w.BytesWritten)/1e6) + marker,
		})
	}
	if err := report.Table(os.Stdout, "Write activity per 100 s window",
		[]string{"Window (s)", "writes", "bytes"}, rows); err != nil {
		log.Fatal(err)
	}
}
