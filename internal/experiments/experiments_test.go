package experiments

import (
	"regexp"
	"strings"
	"testing"

	"paragonio/internal/pablo"
)

// The experiments tests run the full-size paper workloads (128-node
// ESCAT, 64-node PRISM, 256-node carbon monoxide), which takes a few
// seconds of wall time in total; they are skipped under -short.

// sharedSuite caches full-size runs across tests in this package.
var sharedSuite = NewSuite(1)

func runExp(t *testing.T, id string) *Artifact {
	t.Helper()
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	art, err := e.Run(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	if art.ID != id {
		t.Fatalf("artifact id %q", art.ID)
	}
	if art.Text == "" {
		t.Fatal("empty artifact text")
	}
	return art
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("experiments = %d, want 20 (5 tables + 9 figures + cachewhatif + clientcache + advisor + flushpolicy + faults + logtier)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %s", e.ID)
		}
	}
	for _, id := range []string{"table1", "table5", "figure1", "figure9"} {
		if !seen[id] {
			t.Fatalf("missing %s", id)
		}
	}
	if _, ok := ByID("table99"); ok {
		t.Fatal("ByID accepted junk")
	}
}

func TestTable1ModesMatch(t *testing.T) {
	art := runExp(t, "table1")
	for _, k := range art.MetricKeys() {
		if art.Measured[k] != 1 {
			t.Errorf("mode cell %s does not match the paper", k)
		}
	}
}

func TestTable4ModesMatch(t *testing.T) {
	art := runExp(t, "table4")
	for _, k := range art.MetricKeys() {
		if art.Measured[k] != 1 {
			t.Errorf("mode cell %s does not match the paper", k)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	art := runExp(t, "table2")
	m := art.Measured
	// A dominated by open+read (paper: 53.68 + 42.64 = 96.3).
	if m["A.open"]+m["A.read"] < 85 {
		t.Errorf("A open+read = %.1f, want > 85", m["A.open"]+m["A.read"])
	}
	if m["A.open"] < 40 || m["A.read"] < 25 {
		t.Errorf("A shares: open %.1f read %.1f", m["A.open"], m["A.read"])
	}
	// B dominated by seek, then write (paper: 63.2 / 28.8).
	if m["B.seek"] < 40 {
		t.Errorf("B seek = %.1f, want > 40", m["B.seek"])
	}
	if m["B.seek"]+m["B.write"] < 85 {
		t.Errorf("B seek+write = %.1f", m["B.seek"]+m["B.write"])
	}
	if m["B.read"] > 2 {
		t.Errorf("B read = %.1f, want collapsed", m["B.read"])
	}
	// C dominated by write; seeks gone; gopen+iomode visible.
	if m["C.write"] < 40 {
		t.Errorf("C write = %.1f, want > 40", m["C.write"])
	}
	if m["C.seek"] > 2 {
		t.Errorf("C seek = %.1f, want ~0", m["C.seek"])
	}
	if m["C.gopen"]+m["C.iomode"] < 20 {
		t.Errorf("C gopen+iomode = %.1f, want > 20", m["C.gopen"]+m["C.iomode"])
	}
}

func TestTable3Shapes(t *testing.T) {
	art := runExp(t, "table3")
	m := art.Measured
	// Ethylene: all I/O shares small; B > A > C.
	if !(m["eth.B.allio"] > m["eth.A.allio"] && m["eth.A.allio"] > m["eth.C.allio"]) {
		t.Errorf("allio ordering: A=%.2f B=%.2f C=%.2f",
			m["eth.A.allio"], m["eth.B.allio"], m["eth.C.allio"])
	}
	if m["eth.C.allio"] > 1.5 {
		t.Errorf("eth C allio = %.2f, want < 1.5", m["eth.C.allio"])
	}
	// Carbon monoxide: I/O ~20% of execution even optimized.
	if m["co.C.allio"] < 12 || m["co.C.allio"] > 28 {
		t.Errorf("co allio = %.2f, want ~19.4", m["co.C.allio"])
	}
	if m["co.C.write"] > 0.5 {
		t.Errorf("co write = %.2f, want ~0 (staged restart)", m["co.C.write"])
	}
}

func TestTable5Shapes(t *testing.T) {
	art := runExp(t, "table5")
	m := art.Measured
	if m["A.open"] < 60 {
		t.Errorf("A open = %.1f, want > 60", m["A.open"])
	}
	if m["B.open"] < 50 {
		t.Errorf("B open = %.1f, want > 50", m["B.open"])
	}
	if m["B.read"] > m["A.read"] {
		t.Errorf("B read (%.1f) should collapse below A's (%.1f)", m["B.read"], m["A.read"])
	}
	if m["C.read"] < 70 {
		t.Errorf("C read = %.1f, want > 70 (unbuffered header)", m["C.read"])
	}
	if m["C.open"]+m["C.gopen"] > 10 {
		t.Errorf("C open+gopen = %.1f, want collapsed", m["C.open"]+m["C.gopen"])
	}
}

func TestFigure1Progression(t *testing.T) {
	art := runExp(t, "figure1")
	m := art.Measured
	order := []string{"exec.A", "exec.A2", "exec.B1", "exec.B2", "exec.B3", "exec.C"}
	for i := 1; i < len(order); i++ {
		if m[order[i]] >= m[order[i-1]] {
			t.Errorf("progression not monotone at %s: %.0f >= %.0f",
				order[i], m[order[i]], m[order[i-1]])
		}
	}
	if m["reduction.pct"] < 15 || m["reduction.pct"] > 25 {
		t.Errorf("reduction = %.1f%%, want ~20%%", m["reduction.pct"])
	}
	// Within 5% of the figure readings.
	for _, k := range order {
		rel := (m[k] - art.Paper[k]) / art.Paper[k]
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("%s = %.0f, paper ~%.0f (%.1f%% off)", k, m[k], art.Paper[k], 100*rel)
		}
	}
}

func TestFigure2CDFs(t *testing.T) {
	art := runExp(t, "figure2")
	m := art.Measured
	if m["A.reads.small.frac"] < 0.95 {
		t.Errorf("A small-read fraction = %.2f, want ~0.97", m["A.reads.small.frac"])
	}
	if m["A.readdata.small.frac"] < 0.25 || m["A.readdata.small.frac"] > 0.55 {
		t.Errorf("A small-read data fraction = %.2f, want ~0.40", m["A.readdata.small.frac"])
	}
	for _, id := range []string{"B", "C"} {
		if m[id+".reads.small.frac"] > 0.75 {
			t.Errorf("%s small-read fraction = %.2f, want ~0.5", id, m[id+".reads.small.frac"])
		}
		if m[id+".readdata.large128K.frac"] < 0.9 {
			t.Errorf("%s 128K data fraction = %.2f, want ~0.98", id, m[id+".readdata.large128K.frac"])
		}
	}
	for _, id := range []string{"A", "B", "C"} {
		if m[id+".writes.small.frac"] < 0.99 {
			t.Errorf("%s writes above 3KB present", id)
		}
	}
}

func TestFigure5SeekContrast(t *testing.T) {
	art := runExp(t, "figure5")
	m := art.Measured
	if m["B.seek.max_s"] < 1 {
		t.Errorf("B max seek = %.2fs, want multi-second contention", m["B.seek.max_s"])
	}
	if m["C.seek.max_s"] > 0.5 {
		t.Errorf("C max seek = %.2fs, want sub-half-second", m["C.seek.max_s"])
	}
	if m["seekmax.ratio.BoverC"] < 10 {
		t.Errorf("seek ratio B/C = %.1f, want orders of magnitude", m["seekmax.ratio.BoverC"])
	}
}

func TestFigure6Progression(t *testing.T) {
	art := runExp(t, "figure6")
	m := art.Measured
	if !(m["exec.A"] > m["exec.B"] && m["exec.B"] > m["exec.C"]) {
		t.Errorf("PRISM exec not monotone: %.0f %.0f %.0f", m["exec.A"], m["exec.B"], m["exec.C"])
	}
	if m["reduction.pct"] < 15 || m["reduction.pct"] > 30 {
		t.Errorf("reduction = %.1f%%, want ~23%%", m["reduction.pct"])
	}
}

func TestFigure9Checkpoints(t *testing.T) {
	art := runExp(t, "figure9")
	if got := art.Measured["checkpoints.visible"]; got != 5 {
		t.Errorf("visible checkpoints = %.0f, want 5", got)
	}
}

// TestArtifactsRenderPlots: every plotted figure renders a plot, and
// each timeline figure renders one plot per version it names, titled
// "..., version X" and marked with the version's lower-case letter.
func TestArtifactsRenderPlots(t *testing.T) {
	timelines := map[string][]string{
		"figure3": {"A", "C"}, "figure4": {"A", "C"}, "figure5": {"B", "C"},
		"figure8": {"A", "B", "C"}, "figure9": {"C"},
	}
	for _, id := range []string{"figure2", "figure3", "figure4", "figure5", "figure7", "figure8", "figure9"} {
		art := runExp(t, id)
		if !strings.Contains(art.Text, "|") || !strings.Contains(art.Text, "+--") {
			t.Errorf("%s text does not contain a rendered plot", id)
		}
		versions, ok := timelines[id]
		if !ok {
			continue
		}
		if n := strings.Count(art.Text, "+--"); n != len(versions) {
			t.Errorf("%s renders %d plots, want one for each of versions %v", id, n, versions)
		}
		for _, v := range versions {
			title := regexp.MustCompile(`(?m)^Figure \d: .*, version ` + v + `$`)
			legend := strings.ToLower(v) + " = version " + v
			if n := len(title.FindAllString(art.Text, -1)); n != 1 || strings.Count(art.Text, legend) != 1 {
				t.Errorf("%s: %d plots titled for version %s, legend %q found %d times; want one each",
					id, n, v, legend, strings.Count(art.Text, legend))
			}
		}
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	r1, err := sharedSuite.Ethylene("C")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sharedSuite.Ethylene("C")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("suite re-ran a cached version")
	}
}

func TestSuiteRejectsUnknownVersions(t *testing.T) {
	s := NewSuite(1)
	if _, err := s.Ethylene("Z"); err == nil {
		t.Fatal("unknown ESCAT version accepted")
	}
	if _, err := s.Prism("Q"); err == nil {
		t.Fatal("unknown PRISM version accepted")
	}
}

// TestCrossArtifactConsistency ties artifacts that share runs: the
// execution times figure 1 reports must equal the runs behind tables
// 2-3, and table 2's shares must be consistent with the raw trace.
func TestCrossArtifactConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads")
	}
	fig1 := mustArt(t, "figure1")
	// Figure 1's progression ids map onto the paper versions: A and C
	// directly; the B-family's final build (B3) is the same workload as
	// the analyzed version B.
	for figKey, runID := range map[string]string{"exec.A": "A", "exec.B3": "B", "exec.C": "C"} {
		res, err := sharedSuite.Ethylene(runID)
		if err != nil {
			t.Fatal(err)
		}
		if got := fig1.Measured[figKey]; got != res.Exec.Seconds() {
			t.Errorf("figure1 %s = %.2f, run says %.2f", figKey, got, res.Exec.Seconds())
		}
	}
	// Table 2 shares recomputed from the raw trace must match.
	table2 := mustArt(t, "table2")
	resC, err := sharedSuite.Ethylene("C")
	if err != nil {
		t.Fatal(err)
	}
	agg := pablo.AggregateByOp(resC.Trace)
	pct := agg.Percent()
	if got, want := table2.Measured["C.write"], pct[pablo.OpWrite]; abs(got-want) > 0.01 {
		t.Errorf("table2 C.write %.3f != trace %.3f", got, want)
	}
	// Table 3's All-I/O percentage must equal Result.IOPercent.
	table3 := mustArt(t, "table3")
	if got, want := table3.Measured["eth.C.allio"], resC.IOPercent(); abs(got-want) > 0.01 {
		t.Errorf("table3 allio %.3f != IOPercent %.3f", got, want)
	}
}

func mustArt(t *testing.T, id string) *Artifact {
	t.Helper()
	e, _ := ByID(id)
	art, err := e.Run(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
