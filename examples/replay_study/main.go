// replay_study performs the machine-configuration study the paper lists
// as future work: capture one application's I/O trace, then replay its
// request stream — data path only, think time preserved — against
// machines with different I/O node counts and stripe units, without
// re-running the application.
//
//	go run ./examples/replay_study
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/core"
	"paragonio/internal/replay"
	"paragonio/internal/report"
)

func main() {
	// Capture: a reduced ESCAT version C run (the tuned code).
	d := escat.Ethylene()
	d.Nodes = 32
	d.Cycles = 12
	d.CycleCompute = 6 * time.Second
	d.CycleJitter = time.Second
	d.SetupCompute = 3 * time.Second
	d.EnergyCompute = 5 * time.Second
	d.EnergyJitter = 2 * time.Second
	fmt.Println("capturing: ESCAT version C, 32 nodes, on the paper's machine")
	res, err := escat.Run(context.Background(), core.Config{Seed: 1}, d, escat.VersionC())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d traced events, %.0f s virtual execution\n\n", res.Trace.Len(), res.Exec.Seconds())

	// Replay across I/O node counts.
	var rows [][]string
	for _, ion := range []int{2, 4, 8, 16, 32} {
		out, err := replay.Replay(res.Trace, replay.Config{
			Platform:     core.Config{IONodes: ion},
			PreserveGaps: false, // pure storage stress
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", ion),
			fmt.Sprintf("%.2f s", out.ReplayDataTime.Seconds()),
			fmt.Sprintf("%.2f s", out.ReplaySpan.Seconds()),
			fmt.Sprintf("%.2fx", out.Speedup()),
		})
	}
	if err := report.Table(os.Stdout,
		"Replaying the captured request stream across I/O node counts",
		[]string{"I/O nodes", "data-op time", "span", "speedup vs original"}, rows); err != nil {
		log.Fatal(err)
	}

	// Replay across stripe units.
	fmt.Println()
	rows = rows[:0]
	for _, su := range []int64{16 << 10, 64 << 10, 256 << 10} {
		out, err := replay.Replay(res.Trace, replay.Config{
			Platform:     core.Config{StripeUnit: su},
			PreserveGaps: false,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d KB", su>>10),
			fmt.Sprintf("%.2f s", out.ReplayDataTime.Seconds()),
			fmt.Sprintf("%.2f s", out.ReplaySpan.Seconds()),
		})
	}
	if err := report.Table(os.Stdout,
		"Replaying across stripe units (16 I/O nodes)",
		[]string{"stripe unit", "data-op time", "span"}, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("note: the replay reissues the recorded (offset, size) stream through")
	fmt.Println("M_ASYNC, so it isolates striping/disk effects from the mode-level")
	fmt.Println("serialization the original run already captured.")
}
