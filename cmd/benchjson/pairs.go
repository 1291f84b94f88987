package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"paragonio/internal/stats"
)

// pairRun is one tagged result line of scripts/bench-pairs.sh: one run
// of the benchmark on one side of one pair.
type pairRun struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Seed     int64  `json:"seed"`
	Side     string `json:"side"` // "base" or "change"
	Result   struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// spread is one side's sample of a metric.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// PairFold is the paired comparison of one metric on one workload: both
// sides' medians and quartiles, the gap between the medians, how many
// pairs each side won, the exact two-sided sign-test p over the pairs
// that did not tie, and each side's share of failed operations over all
// of the workload's pairs.
type PairFold struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"` // "lower" or "higher"
	Pairs    int     `json:"pairs"`
	Base     spread  `json:"base"`
	Change   spread  `json:"change"`
	Delta    float64 `json:"delta"`     // change median - base median
	DeltaPct float64 `json:"delta_pct"` // Delta as a percentage of the base median
	Wins     int     `json:"wins"`      // pairs the change won
	Losses   int     `json:"losses"`    // pairs the base won
	SignP    float64 `json:"sign_p"`    // exact two-sided sign test, ties dropped
	Bound    float64 `json:"bound"`     // BENCHMARK.json bound, 0 if none
	// BaseFailed and ChangeFailed are failed over attempted operations,
	// both summed over all the workload's pairs: a side that fails in a
	// minority of its runs still shows here, though not in its median.
	BaseFailed   float64 `json:"base_failed"`
	ChangeFailed float64 `json:"change_failed"`
	Verdict      string  `json:"verdict"` // see verdict
}

// metricSpec is what BENCHMARK.json says of one metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads the directions and bounds of a BENCHMARK.json's
// end-to-end metrics, the ones an untraced run reports. A missing file
// is no error: every metric is then lower-is-better and unbounded.
func loadSpec(path string) (map[string]metricSpec, error) {
	out := map[string]metricSpec{
		// failed_frac is the fold's own metric: failed over attempted
		// operations. No workload may fail a larger share.
		"failed_frac": {Name: "failed_frac", Better: "lower"},
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// readPairs parses the tagged result lines of scripts/bench-pairs.sh.
func readPairs(r io.Reader) ([]pairRun, error) {
	var runs []pairRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var run pairRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("benchjson: pairs line %d: %v", line, err)
		}
		if run.Side != "base" && run.Side != "change" {
			return nil, fmt.Errorf("benchjson: pairs line %d: side %q, want base or change", line, run.Side)
		}
		runs = append(runs, run)
	}
	return runs, sc.Err()
}

// foldPairs folds runs into one PairFold per workload and metric, in
// workload then metric order. A pair counts only when both of its sides
// are present and both report the metric; its operations count toward
// the failed shares once both sides are present.
func foldPairs(runs []pairRun, spec map[string]metricSpec) []PairFold {
	type key struct {
		workload string
		pair     int
	}
	sides := map[key][2]*pairRun{}
	for i := range runs {
		r := &runs[i]
		k := key{r.Workload, r.Pair}
		s := sides[k]
		if r.Side == "base" {
			s[0] = r
		} else {
			s[1] = r
		}
		sides[k] = s
	}
	type cell struct {
		unit         string
		base, change []float64
	}
	cells := map[[2]string]*cell{}
	// ops[workload][side] sums {failed, attempted} over complete pairs.
	ops := map[string]*[2][2]int{}
	for k, s := range sides {
		if s[0] == nil || s[1] == nil {
			continue
		}
		if ops[k.workload] == nil {
			ops[k.workload] = new([2][2]int)
		}
		for i, r := range s {
			ops[k.workload][i][0] += r.Result.Failed
			ops[k.workload][i][1] += r.Result.Attempted
		}
		values := func(r *pairRun) map[string]float64 {
			out := map[string]float64{}
			for name, m := range r.Result.Metrics {
				out[name] = m.Value
			}
			if r.Result.Attempted > 0 {
				out["failed_frac"] = float64(r.Result.Failed) / float64(r.Result.Attempted)
			}
			return out
		}
		b, c := values(s[0]), values(s[1])
		for name, bv := range b {
			cv, ok := c[name]
			if !ok {
				continue
			}
			id := [2]string{k.workload, name}
			if cells[id] == nil {
				cells[id] = &cell{unit: s[0].Result.Metrics[name].Unit}
				if name == "failed_frac" {
					cells[id].unit = "frac"
				}
			}
			cells[id].base = append(cells[id].base, bv)
			cells[id].change = append(cells[id].change, cv)
		}
	}
	ids := make([][2]string, 0, len(cells))
	for id := range cells {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i][0] != ids[j][0] {
			return ids[i][0] < ids[j][0]
		}
		return ids[i][1] < ids[j][1]
	})
	out := make([]PairFold, 0, len(ids))
	for _, id := range ids {
		c := cells[id]
		sp, ok := spec[id[1]]
		if !ok || sp.Better == "" {
			sp.Better = "lower"
		}
		f := foldMetric(id[0], id[1], c.unit, sp, c.base, c.change)
		share := func(n [2]int) float64 {
			if n[1] == 0 {
				return 0
			}
			return float64(n[0]) / float64(n[1])
		}
		f.BaseFailed, f.ChangeFailed = share(ops[id[0]][0]), share(ops[id[0]][1])
		f.Verdict = verdict(f, c.base, c.change)
		out = append(out, f)
	}
	return out
}

// foldMetric folds one metric's paired samples, all but the verdict;
// base[i] and change[i] are the two sides of pair i.
func foldMetric(workload, metric, unit string, sp metricSpec, base, change []float64) PairFold {
	f := PairFold{Workload: workload, Metric: metric, Unit: unit, Better: sp.Better,
		Pairs: len(base), Bound: sp.Bound}
	for i := range base {
		switch d := f.sign() * (change[i] - base[i]); {
		case d < 0:
			f.Wins++
		case d > 0:
			f.Losses++
		}
	}
	f.Base, f.Change = spreadOf(base), spreadOf(change)
	f.Delta = f.Change.Median - f.Base.Median
	if f.Base.Median != 0 {
		f.DeltaPct = 100 * f.Delta / f.Base.Median
	}
	f.SignP = signTest(f.Wins, f.Losses)
	return f
}

// sign is +1 for a lower-is-better metric and -1 otherwise, so that
// sign*x is smaller when x is better.
func (f PairFold) sign() float64 {
	if f.Better == "higher" {
		return -1
	}
	return 1
}

// verdict applies the repository's claim rule to a fold and its paired
// samples:
//   - "worse": on the failed_frac row, the change failed a larger share
//     of the workload's operations; on any other row, the change's
//     median is worse than the base's by more than the metric's bound;
//   - "gain": the change won at least 9 in 10 of the pairs, its median
//     beats the base's by more than the base's IQR, the sign test gives
//     p < 0.05 (which a campaign of fewer than six pairs cannot), and
//     the workload failed no larger share of operations;
//   - "better": short of a gain, every change run beat every base run,
//     and the workload failed no larger share of operations;
//   - "unresolved": the base's own IQR is wider than the bound, so a
//     regression within it cannot be told from noise;
//   - "same" otherwise.
func verdict(f PairFold, base, change []float64) string {
	iqr := f.Base.Q3 - f.Base.Q1
	gap := -f.sign() * f.Delta // positive when the change is better
	moreFailed := f.ChangeFailed > f.BaseFailed
	switch {
	case f.Metric == "failed_frac" && moreFailed:
		return "worse"
	case f.Bound > 0 && -gap > f.Bound*math.Abs(f.Base.Median):
		return "worse"
	case 10*f.Wins >= 9*f.Pairs && gap > iqr && f.SignP < 0.05 && !moreFailed:
		return "gain"
	case beatsAll(f.sign(), base, change) && !moreFailed:
		return "better"
	case f.Bound > 0 && iqr > f.Bound*math.Abs(f.Base.Median):
		return "unresolved"
	}
	return "same"
}

// beatsAll reports whether every change run beat every base run, sign
// being the fold's sign.
func beatsAll(sign float64, base, change []float64) bool {
	if len(base) == 0 {
		return false
	}
	if sign > 0 {
		return slices.Max(change) < slices.Min(base)
	}
	return slices.Min(change) > slices.Max(base)
}

// spreadOf returns a sample's median and quartiles.
func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Median: stats.Percentile(s, 50), Q1: stats.Percentile(s, 25), Q3: stats.Percentile(s, 75)}
}

// signTest returns the exact two-sided sign-test p for wins against
// losses (ties already dropped): twice the binomial(n, 1/2) tail at the
// smaller count, capped at 1.
func signTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	// C(n, i) grows exactly in float64 for any pair count a campaign
	// reaches; dividing by 2^n is an exact exponent shift.
	var tail float64
	c := 1.0
	for i := 0; i <= min(wins, losses); i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*math.Ldexp(tail, -n))
}

// runPairs folds the pairs file at path under the directions and bounds
// of ./BENCHMARK.json and prints the folds.
func runPairs(w io.Writer, path string, md bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := readPairs(f)
	if err != nil {
		return err
	}
	folds := foldPairs(runs, spec)
	if len(folds) == 0 {
		return fmt.Errorf("benchjson: %s holds no complete pair", path)
	}
	return writePairs(w, folds, md)
}

// writePairs prints the folds: one JSON object per line, or with md a
// Markdown table with one row per workload and metric.
func writePairs(w io.Writer, folds []PairFold, md bool) error {
	if !md {
		enc := json.NewEncoder(w)
		for _, f := range folds {
			if err := enc.Encode(f); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Fprintln(w, "| workload | metric | base median (q1–q3) | change median (q1–q3) | delta | wins | sign p | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, f := range folds {
		fmt.Fprintf(w, "| %s | %s | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %+.4g (%+.1f%%) | %d/%d | %.3g | %s |\n",
			f.Workload, f.Metric, f.Base.Median, f.Base.Q1, f.Base.Q3,
			f.Change.Median, f.Change.Q1, f.Change.Q3, f.Delta, f.DeltaPct, f.Wins, f.Pairs, f.SignP, f.Verdict)
	}
	return nil
}
