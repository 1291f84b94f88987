// escat_evolution replays the paper's eighteen months of ESCAT tuning in
// a few seconds: it runs versions A, B, and C of the electron-scattering
// workload on the full 128-node ethylene problem and shows how the I/O
// profile shifts (Table 2 / Figure 1 of the paper).
//
//	go run ./examples/escat_evolution
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"paragonio/internal/analysis"
	"paragonio/internal/apps/escat"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/report"
)

func main() {
	ds := escat.Ethylene()
	fmt.Printf("ESCAT %s: %d nodes, %d collision channels, %.1f MB quadrature per channel\n\n",
		ds.Name, ds.Nodes, ds.Channels, float64(ds.QuadBytes())/1e6)

	type row struct {
		v      escat.Version
		exec   float64
		iopct  float64
		shares map[pablo.Op]float64
	}
	var rows []row
	for _, v := range escat.PaperVersions() {
		res, err := escat.Run(context.Background(), core.Config{Seed: 1}, ds, v)
		if err != nil {
			log.Fatal(err)
		}
		shares := map[pablo.Op]float64{}
		for _, s := range analysis.IOTimeShares(res.Trace) {
			shares[s.Op] = s.Percent
		}
		rows = append(rows, row{v: v, exec: res.Exec.Seconds(), iopct: res.IOPercent(), shares: shares})
		fmt.Printf("version %s (%s): exec %.0f s, I/O %.2f%% of node-time — %s\n",
			v.ID, v.OS, res.Exec.Seconds(), res.IOPercent(), v.Label)
	}
	fmt.Println()

	var table [][]string
	for _, op := range pablo.Ops() {
		r := []string{op.String()}
		for _, rw := range rows {
			r = append(r, fmt.Sprintf("%.2f", rw.shares[op]))
		}
		table = append(table, r)
	}
	if err := report.Table(os.Stdout, "Aggregate I/O time by operation (%), as in the paper's Table 2",
		[]string{"Operation", "A", "B", "C"}, table); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("The story the numbers tell:")
	fmt.Println("  A: 128 nodes open and read the input files concurrently through M_UNIX —")
	fmt.Println("     opens and token-serialized reads dominate.")
	fmt.Println("  B: node zero reads and broadcasts; all nodes write staging data through")
	fmt.Println("     M_UNIX with per-write seeks — shared-pointer seeks take over.")
	fmt.Println("  C: the same writes through the new M_ASYNC mode — seeks vanish, leaving")
	fmt.Printf("     the writes themselves; total execution time falls %.0f%% from A.\n",
		100*(rows[0].exec-rows[2].exec)/rows[0].exec)
}
