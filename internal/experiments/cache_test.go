package experiments

import (
	"strings"
	"testing"
)

// TestCacheWhatIfReproducible proves cached runs keep the simulator's
// bit-reproducibility contract: two fresh suites render the identical
// artifact, byte for byte.
func TestCacheWhatIfReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	a1, err := cacheWhatIf(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cacheWhatIf(NewSuite(sharedSuite.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Text != a2.Text {
		t.Fatalf("cachewhatif not reproducible:\n--- first\n%s\n--- second\n%s", a1.Text, a2.Text)
	}
}

// TestCacheWhatIfWriteBehindWins pins the experiment's headline claim:
// write-behind reduces PRISM's checkpoint I/O time (and overall I/O
// time), with the mechanism visible in the cache statistics.
func TestCacheWhatIfWriteBehindWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	art, err := cacheWhatIf(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	// Paper = cache-off baseline; Measured = best cached variant.
	if got, base := art.Measured["prism.chk_write_s"], art.Paper["prism.chk_write_s"]; got >= base {
		t.Fatalf("checkpoint write time %g s not below cache-off baseline %g s", got, base)
	}
	if got, base := art.Measured["prism.io_s"], art.Paper["prism.io_s"]; got >= base {
		t.Fatalf("PRISM I/O time %g s not below cache-off baseline %g s", got, base)
	}
	if got, base := art.Measured["eth.quad_write_s"], art.Paper["eth.quad_write_s"]; got >= base {
		t.Fatalf("staging write time %g s not below cache-off baseline %g s", got, base)
	}
	for _, col := range []string{"hit_%", "max_dirty", "stalls"} {
		if !strings.Contains(art.Text, col) {
			t.Fatalf("artifact text missing cache-stats column %q:\n%s", col, art.Text)
		}
	}

	// The mechanism, from the run itself: server-side hits and a working
	// write-behind queue.
	res, err := sharedSuite.underTiers(prismC, cacheVariants()[2].tiers) // wb32
	if err != nil {
		t.Fatal(err)
	}
	ct := res.Cache
	if ct.HitRatio() < 0.5 {
		t.Fatalf("hit ratio %.2f too low for the checkpoint/restart pattern", ct.HitRatio())
	}
	if ct.MaxDirty == 0 {
		t.Fatal("write-behind queue never held a dirty block")
	}
	if ct.Dirty != 0 {
		t.Fatalf("%d dirty blocks left after run end — flusher did not drain", ct.Dirty)
	}
	if ct.WriteBehindBytes == 0 {
		t.Fatal("no bytes acknowledged via write-behind")
	}
}

// TestCacheWhatIfCarbonMonoxide pins the honest carbon-monoxide outcome:
// the restart-staged reload has no reuse, so caching must not be reported
// as a win, and the cache-size sensitivity the study probes for must be
// visible — read-ahead misfetches at 1 MB/node, better accuracy at
// 32 MB/node. The workload is read-dominated, so no forced-flush stalls.
func TestCacheWhatIfCarbonMonoxide(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	art, err := cacheWhatIf(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art.Text, "carbon monoxide") {
		t.Fatalf("artifact text missing the carbon-monoxide table:\n%s", art.Text)
	}
	if got, base := art.Measured["co.io_s"], art.Paper["co.io_s"]; got < base {
		t.Fatalf("CO I/O time %g s below cache-off %g s — the honest negative result moved; update the notes", got, base)
	}

	variants := cacheVariants()
	small, err := sharedSuite.underTiers(coC, variants[3].tiers) // wbra1
	if err != nil {
		t.Fatal(err)
	}
	large, err := sharedSuite.underTiers(coC, variants[4].tiers) // wbra32
	if err != nil {
		t.Fatal(err)
	}
	st, lt := small.Cache, large.Cache
	if st.ReadAheadAccuracy() >= lt.ReadAheadAccuracy() {
		t.Fatalf("read-ahead accuracy %.3f at 1 MB not below %.3f at 32 MB — cache-size sensitivity vanished",
			st.ReadAheadAccuracy(), lt.ReadAheadAccuracy())
	}
	if st.ForcedFlushStalls != 0 || lt.ForcedFlushStalls != 0 {
		t.Fatalf("read-dominated CO reload reported forced-flush stalls (%d / %d)",
			st.ForcedFlushStalls, lt.ForcedFlushStalls)
	}
}

// TestCacheWhatIfRegistered checks the experiment is reachable by id,
// i.e. `iotables -only cachewhatif` works.
func TestCacheWhatIfRegistered(t *testing.T) {
	e, ok := ByID("cachewhatif")
	if !ok {
		t.Fatal("cachewhatif not registered in All()")
	}
	if e.Run == nil || e.Title == "" {
		t.Fatalf("incomplete experiment: %+v", e)
	}
}
