// queue_depth looks underneath the paper's Figure 5: it runs the ESCAT
// staging phase in versions B (M_UNIX) and C (M_ASYNC) with a
// utilization sampler attached, and plots the file-token queue depth
// over time. B's multi-second seeks are exactly this queue; C's
// M_ASYNC writes never form one.
//
//	go run ./examples/queue_depth
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/core"
	"paragonio/internal/report"
)

func main() {
	d := escat.Ethylene()
	d.Nodes = 64
	d.Cycles = 10
	d.CycleCompute = 10 * time.Second
	d.CycleJitter = 2 * time.Second
	d.SetupCompute = 2 * time.Second
	d.EnergyCompute = 5 * time.Second
	d.EnergyJitter = 2 * time.Second

	for _, v := range []escat.Version{escat.VersionB(), escat.VersionC()} {
		cfg := core.Config{Seed: 1, SampleInterval: 2 * time.Second}
		res, err := escat.Run(context.Background(), cfg, d, v)
		if err != nil {
			log.Fatal(err)
		}
		series := report.Series{Name: "token queue depth", Glyph: 'q'}
		maxQ := 0
		for _, s := range res.Samples {
			series.Points = append(series.Points,
				report.Point{X: s.T.Seconds(), Y: float64(s.TokenQueue)})
			if s.TokenQueue > maxQ {
				maxQ = s.TokenQueue
			}
		}
		p := report.Plot{
			Title: fmt.Sprintf(
				"Version %s (%s staging writes): file-token queue depth over time (max %d)",
				v.ID, v.Phase2Mode, maxQ),
			XLabel: "execution time (s)", YLabel: "waiters",
			Width: 74, Height: 12,
		}
		if err := p.Render(os.Stdout, []report.Series{series}); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("Version B's atomicity token forms a deep queue at every synchronized")
	fmt.Println("write step — the queueing that surfaces as multi-second seek durations")
	fmt.Println("in the paper's Figure 5. M_ASYNC (version C) has no token to queue on.")
}
