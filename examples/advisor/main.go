// advisor closes the paper's loop: it runs ESCAT version A (the
// untuned code), lets the policy advisor analyze the trace, prints the
// recommendations — and then verifies them by running version C (which
// embodies exactly those changes) and comparing.
//
// This is the paper's section 7 argument made executable: the eighteen
// months of hand-tuning the study documents is mechanically derivable
// from the version A trace.
//
//	go run ./examples/advisor
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/core"
	"paragonio/internal/policy"
	"paragonio/internal/report"
)

func main() {
	// A reduced ethylene problem keeps this example snappy while
	// preserving every access pattern.
	d := escat.Ethylene()
	d.Nodes = 32
	d.Cycles = 12
	d.CycleCompute = 8 * time.Second
	d.CycleJitter = 2 * time.Second
	d.SetupCompute = 4 * time.Second
	d.EnergyCompute = 10 * time.Second
	d.EnergyJitter = 3 * time.Second

	fmt.Println("step 1: run the untuned code (version A) under Pablo instrumentation")
	a, err := escat.Run(context.Background(), core.Config{Seed: 1}, d, escat.VersionA())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  exec %.0f s, summed I/O %.0f s (%.2f%% of node-time)\n\n",
		a.Exec.Seconds(), a.IOTime().Seconds(), a.IOPercent())

	fmt.Println("step 2: classify the trace and ask the advisor")
	recs := policy.AdviseAll(policy.Classify(a.Trace), policy.Options{})
	var rows [][]string
	for _, r := range recs {
		rows = append(rows, []string{r.File, r.Kind.String(), r.Reason})
	}
	if err := report.Table(os.Stdout, "",
		[]string{"File", "Recommendation", "Why"}, rows); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("step 3: version C is precisely these changes applied by hand —")
	fmt.Println("        node-zero read + broadcast for the inputs, M_ASYNC staging")
	fmt.Println("        writes, M_RECORD reloads, gopen everywhere. Run it:")
	c, err := escat.Run(context.Background(), core.Config{Seed: 1}, d, escat.VersionC())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  exec %.0f s (%.0f%% faster), summed I/O %.0f s (%.1fx less)\n",
		c.Exec.Seconds(),
		100*(a.Exec-c.Exec).Seconds()/a.Exec.Seconds(),
		c.IOTime().Seconds(),
		a.IOTime().Seconds()/c.IOTime().Seconds())

	fmt.Println()
	fmt.Println("step 4: the advisor has nothing left to say about the input files:")
	crecs := policy.AdviseAll(policy.Classify(c.Trace), policy.Options{})
	var remaining int
	for _, r := range crecs {
		if r.Kind == policy.UseGlobalRead || r.Kind == policy.UseAsyncWrites {
			remaining++
		}
	}
	fmt.Printf("  global-read / async-write findings on version C: %d (was %d on A)\n",
		remaining, countKinds(recs, policy.UseGlobalRead, policy.UseAsyncWrites))
}

func countKinds(recs []policy.Recommendation, kinds ...policy.Kind) int {
	var n int
	for _, r := range recs {
		for _, k := range kinds {
			if r.Kind == k {
				n++
			}
		}
	}
	return n
}
