// Command iotables regenerates every table and figure of the paper's
// evaluation from fresh simulated runs and prints each artifact with a
// paper-vs-measured comparison.
//
// Usage:
//
//	iotables                  # all of tables 1-5 and figures 1-9
//	iotables -only table2,figure5
//	iotables -seed 7 -summary
//	iotables -j 8             # regenerate with 8 parallel workers
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"paragonio/internal/cliflags"
	"paragonio/internal/experiments"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated experiment ids (e.g. table2,figure5)")
		seed    = flag.Int64("seed", 1, "workload random seed")
		summary = flag.Bool("summary", false, "print only the per-experiment metric comparisons")
		outDir  = flag.String("out", "", "also write each artifact to <dir>/<id>.txt")
		jobs    = flag.String("j", "auto",
			"experiments regenerated in parallel: a count or auto = GOMAXPROCS (sims are deterministic; output is identical for any -j)")
	)
	flag.Parse()
	j, err := cliflags.ParseJobs(*jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotables:", err)
		os.Exit(1)
	}
	if err := run(*only, *seed, *summary, *outDir, j); err != nil {
		fmt.Fprintln(os.Stderr, "iotables:", err)
		os.Exit(1)
	}
}

func run(only string, seed int64, summary bool, outDir string, jobs int) error {
	exps := experiments.All()
	valid := make([]string, 0, len(exps))
	for _, e := range exps {
		valid = append(valid, e.ID)
	}
	wanted, err := cliflags.Only(only, "experiment", valid)
	if err != nil {
		return err
	}
	if wanted != nil {
		kept := exps[:0]
		for _, e := range exps {
			if wanted[e.ID] {
				kept = append(kept, e)
			}
		}
		exps = kept
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	arts, err := experiments.RunAll(experiments.NewSuite(seed), exps, jobs)
	if err != nil {
		return err
	}
	for i, art := range arts {
		fmt.Printf("################ %s — %s ################\n\n", art.ID, exps[i].Title)
		if summary {
			for _, k := range art.MetricKeys() {
				fmt.Printf("  %-32s paper %10.2f   measured %10.2f\n",
					k, art.Paper[k], art.Measured[k])
			}
		} else {
			fmt.Println(art.Text)
		}
		if art.Notes != "" {
			fmt.Printf("notes: %s\n", art.Notes)
		}
		fmt.Println()
		if outDir != "" {
			body := art.Title + "\n\n" + art.Text
			if art.Notes != "" {
				body += "\nnotes: " + art.Notes + "\n"
			}
			path := filepath.Join(outDir, art.ID+".txt")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
