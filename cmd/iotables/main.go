// Command iotables regenerates every table and figure of the paper's
// evaluation, and the what-if studies, from fresh simulated runs and
// prints each artifact with its measured metrics beside its reference:
// the paper's values, or a what-if study's baseline.
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
	"io"
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
	if err := run(os.Stdout, *only, *seed, *summary, *outDir, j); err != nil {
		fmt.Fprintln(os.Stderr, "iotables:", err)
		os.Exit(1)
	}
}

// run regenerates the selected experiments and prints them to w.
func run(w io.Writer, only string, seed int64, summary bool, outDir string, jobs int) error {
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
		title := exps[i].Title
		fmt.Fprintf(w, "################ %s — %s ################\n\n", art.ID, title)
		if summary {
			label, ref := art.Reference()
			for _, k := range art.MetricKeys() {
				fmt.Fprintf(w, "  %-32s %s %10.2f   measured %10.2f\n",
					k, label, ref[k], art.Measured[k])
			}
		} else {
			fmt.Fprintln(w, art.Text)
		}
		if art.Notes != "" {
			fmt.Fprintf(w, "notes: %s\n", art.Notes)
		}
		fmt.Fprintln(w)
		if outDir != "" {
			body := title + "\n\n" + art.Text
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
