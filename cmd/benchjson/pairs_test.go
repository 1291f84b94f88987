package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSignTest pins the exact two-sided sign test against hand-computed
// binomial tails.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},           // 2 x C(10,0) / 2^10
		{0, 10, 2.0 / 1024},           // symmetric
		{9, 1, 2 * 11.0 / 1024},       // 2 x (C(10,0) + C(10,1)) / 2^10
		{6, 0, 2.0 / 64},              // six straight wins
		{8, 2, 2 * 56.0 / 1024},       // 1 + 10 + 45
		{5, 5, 1},                     // the tail sum passes one half: capped
		{0, 0, 1},                     // all ties: no evidence
		{1, 0, 1},                     // 2 x 1/2
		{20, 0, 2 * math.Pow(2, -20)}, // no loss of precision at larger n
	} {
		if got := signTest(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("signTest(%d, %d) = %v, want %v", tc.wins, tc.losses, got, tc.want)
		}
	}
}

// pairLine renders one tagged result line as scripts/bench-pairs.sh
// writes it.
func pairLine(workload string, pair int, side string, rss, setup float64, failed int) string {
	return fmt.Sprintf(`{"workload":%q,"pair":%d,"seed":%d,"side":%q,"result":{"correct":true,"attempted":100,"failed":%d,`+
		`"metrics":{"max_rss_mb":{"value":%g,"unit":"MiB"},"setup_s":{"value":%g,"unit":"s"}}}}`,
		workload, pair, 200+pair, side, failed, rss, setup)
}

// TestFoldPairs folds a ten-pair campaign with a clear max_rss_mb gain,
// a setup_s that moves within noise, and one pair whose change side is
// missing, and checks every field of the two folds.
func TestFoldPairs(t *testing.T) {
	var in strings.Builder
	baseRSS := []float64{140, 146, 150, 143, 147, 145, 149, 141, 144, 148}
	for i, b := range baseRSS {
		pair := i + 1
		// ABBA order: the fold must pair by tag, not by line order.
		sides := []string{"base", "change"}
		if pair%2 == 0 {
			sides = []string{"change", "base"}
		}
		for _, side := range sides {
			rss, setup := b, 0.50+0.01*float64(i%3)
			if side == "change" {
				rss = b - 30
				if pair == 4 {
					rss = b + 1 // the one pair the change loses
				}
				setup = 0.50 + 0.01*float64((i+1)%3)
			}
			in.WriteString(pairLine("paper-suite", pair, side, rss, setup, 0) + "\n")
		}
	}
	in.WriteString(pairLine("paper-suite", 11, "base", 1, 1, 0) + "\n") // unpaired: dropped

	runs, err := readPairs(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]metricSpec{
		"max_rss_mb":  {Name: "max_rss_mb", Better: "lower", Bound: 0.1},
		"setup_s":     {Name: "setup_s", Better: "lower", Bound: 0.25},
		"failed_frac": {Name: "failed_frac", Better: "lower"},
	}
	folds := foldPairs(runs, spec)
	if len(folds) != 3 {
		t.Fatalf("got %d folds, want failed_frac, max_rss_mb and setup_s", len(folds))
	}
	byMetric := map[string]PairFold{}
	for _, f := range folds {
		byMetric[f.Metric] = f
	}

	rss := byMetric["max_rss_mb"]
	if rss.Pairs != 10 || rss.Wins != 9 || rss.Losses != 1 || rss.Unit != "MiB" {
		t.Errorf("max_rss_mb: %d pairs, %d wins, %d losses, unit %q", rss.Pairs, rss.Wins, rss.Losses, rss.Unit)
	}
	// Base sorted: 140 141 143 144 145 146 147 148 149 150.
	if rss.Base.Median != 145.5 || rss.Base.Q1 != 143.25 || rss.Base.Q3 != 147.75 {
		t.Errorf("max_rss_mb base spread %+v", rss.Base)
	}
	if rss.Delta >= -25 || rss.SignP != 2*11.0/1024 || rss.Verdict != "gain" {
		t.Errorf("max_rss_mb delta %v p %v verdict %s, want a gain at p 0.0215", rss.Delta, rss.SignP, rss.Verdict)
	}

	setup := byMetric["setup_s"]
	if setup.Verdict != "same" || setup.Wins+setup.Losses > setup.Pairs {
		t.Errorf("setup_s fold %+v, want verdict same", setup)
	}
	if f := byMetric["failed_frac"]; f.Wins != 0 || f.Losses != 0 || f.SignP != 1 || f.Verdict != "same" {
		t.Errorf("failed_frac fold %+v, want ten ties", f)
	}

	var out bytes.Buffer
	if err := writePairs(&out, folds, false); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 3 {
		t.Errorf("JSON output has %d lines, want one per metric", len(lines))
	} else {
		var back PairFold
		if err := json.Unmarshal([]byte(lines[1]), &back); err != nil || back.Metric != "max_rss_mb" || back.Wins != 9 {
			t.Errorf("JSON line %q decodes to %+v (%v)", lines[1], back, err)
		}
	}
}

// TestFoldFlagsRegressions pins the two failing verdicts: a median worse
// by more than the bound, and any rise in the failed share.
func TestFoldFlagsRegressions(t *testing.T) {
	var in strings.Builder
	for pair := 1; pair <= 5; pair++ {
		in.WriteString(pairLine("result-cache", pair, "base", 40, 0.5, 0) + "\n")
		in.WriteString(pairLine("result-cache", pair, "change", 46, 0.5, 3) + "\n")
	}
	runs, err := readPairs(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]metricSpec{"max_rss_mb": {Better: "lower", Bound: 0.1}, "failed_frac": {Better: "lower"}}
	for _, f := range foldPairs(runs, spec) {
		want := map[string]string{"max_rss_mb": "worse", "failed_frac": "worse", "setup_s": "same"}[f.Metric]
		if f.Verdict != want {
			t.Errorf("%s verdict %s, want %s", f.Metric, f.Verdict, want)
		}
	}
	if _, err := readPairs(strings.NewReader(`{"workload":"w","pair":1,"side":"left"}`)); err == nil {
		t.Error("a line with an unknown side parsed")
	}
}

// TestFoldFailuresInAMinorityOfRuns fails three of the change's ten
// runs: every per-run median of failed_frac is still zero, but the
// pooled share rises, so the failed_frac row is worse and a clear
// max_rss_mb win on the same workload is no gain.
func TestFoldFailuresInAMinorityOfRuns(t *testing.T) {
	var in strings.Builder
	for pair := 1; pair <= 10; pair++ {
		failed := 0
		if pair <= 3 {
			failed = 2
		}
		in.WriteString(pairLine("paper-suite", pair, "base", 140+float64(pair), 0.5, 0) + "\n")
		in.WriteString(pairLine("paper-suite", pair, "change", 110+float64(pair), 0.5, failed) + "\n")
	}
	runs, err := readPairs(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]metricSpec{"max_rss_mb": {Better: "lower", Bound: 0.1}, "failed_frac": {Better: "lower"}}
	for _, f := range foldPairs(runs, spec) {
		if f.BaseFailed != 0 || f.ChangeFailed != 6.0/1000 {
			t.Errorf("%s failed shares %v, %v, want 0 and 6/1000", f.Metric, f.BaseFailed, f.ChangeFailed)
		}
		want := map[string]string{"max_rss_mb": "same", "failed_frac": "worse", "setup_s": "same"}[f.Metric]
		if f.Verdict != want {
			t.Errorf("%s verdict %s, want %s", f.Metric, f.Verdict, want)
		}
		if f.Metric == "failed_frac" && f.Change.Median != 0 {
			t.Errorf("failed_frac change median %v, want 0", f.Change.Median)
		}
	}
}

// TestFoldSeparatedOnANoisyMetric folds a metric whose base IQR is wider
// than its bound. The change's median beats the base's by less than that
// IQR, so it is no gain; it reads better when every change run beats
// every base run, and unresolved when one does not.
func TestFoldSeparatedOnANoisyMetric(t *testing.T) {
	// Sorted: Q1 150, median 300, Q3 450.
	base := []float64{100, 300, 500, 100, 300, 500, 300, 100, 500, 300}
	sp := metricSpec{Better: "lower", Bound: 0.1}
	change := make([]float64, len(base))
	for i := range change {
		change[i] = 99
	}
	fold := func(change []float64) string {
		f := foldMetric("result-cache", "max_rss_mb", "MiB", sp, base, change)
		return verdict(f, base, change)
	}
	if v := fold(change); v != "better" {
		t.Errorf("every change run below every base run: verdict %s, want better", v)
	}
	change[3] = 101
	if v := fold(change); v != "unresolved" {
		t.Errorf("one change run above the base minimum: verdict %s, want unresolved", v)
	}
	if !beatsAll(-1, []float64{1, 2}, []float64{3, 4}) || beatsAll(-1, []float64{1, 3}, []float64{3, 4}) {
		t.Error("beatsAll mis-reads a higher-is-better metric")
	}
}
