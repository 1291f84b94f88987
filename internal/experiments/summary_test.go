package experiments

import (
	"context"
	"reflect"
	"testing"

	"paragonio/internal/apps"
	"paragonio/internal/apps/escat"
	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

// TestMeasuredRunsMatchTraces re-runs one rung of every measured family
// on ethylene C and PRISM C with its full trace kept, and requires the
// suite's summary to equal what the trace says: execution and I/O time,
// every (file, op) count and duration, the tier counters, the event
// count and the digest.
func TestMeasuredRunsMatchTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	s := NewSuite(1)
	wb32 := cacheVariants()[2]
	both := clientVariants()[4]
	logOnly := logTierVariants()[0]
	b1 := escat.Progressions()[2]
	if wb32.id != "wb32" || both.id != "both" || logOnly.id != "log" || b1.ID != "B1" {
		t.Fatalf("rungs moved: %s %s %s %s", wb32.id, both.id, logOnly.id, b1.ID)
	}

	type measuredCase struct {
		name  string
		cfg   core.Config
		run   apps.Run
		fetch func() (*RunSummary, error)
	}
	tiered := func(r apps.Run, v variant) measuredCase {
		cfg := s.cfg()
		cfg.Tiers = v.tiers
		return measuredCase{r.Identity() + " " + v.id, cfg, r,
			func() (*RunSummary, error) { return s.underTiers(r, v.tiers) }}
	}
	prog := mustLookup("escat", "ethylene", b1.ID)
	cases := []measuredCase{
		tiered(ethC, wb32),
		tiered(prismC, wb32),
		tiered(prismC, both),
		tiered(ethC, logOnly),
		tiered(prismC, logOnly),
		tiered(ethC, both),
		tiered(prismC, both), // an advised rerun landing on a ladder rung's tiers
		{prog.Identity(), s.cfg(), prog,
			func() (*RunSummary, error) { return s.underTiers(prog, cache.Tiers{}) }},
	}
	for _, c := range cases {
		sum, err := c.fetch()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := c.run.Exec(context.Background(), c.cfg)
		if err != nil {
			t.Fatalf("%s (traced): %v", c.name, err)
		}
		if sum.Exec != res.Exec || sum.IO != res.Trace.TotalIOTime() {
			t.Errorf("%s: summary exec %v io %v, trace %v %v", c.name, sum.Exec, sum.IO, res.Exec, res.Trace.TotalIOTime())
		}
		if sum.Events != res.Trace.Len() || sum.Digest != res.Trace.Digest() {
			t.Errorf("%s: summary %d events %#016x, trace %d events %#016x",
				c.name, sum.Events, sum.Digest, res.Trace.Len(), res.Trace.Digest())
		}
		if !reflect.DeepEqual(sum.Cache, res.CacheTotals()) || !reflect.DeepEqual(sum.Client, res.Client) ||
			!reflect.DeepEqual(sum.Log, res.Log) {
			t.Errorf("%s: summary tier counters differ from the run's", c.name)
		}
		type fileOp struct {
			file string
			op   pablo.Op
		}
		count := map[fileOp]int{}
		dur := map[fileOp]int64{}
		for _, ev := range res.Trace.Events() {
			if ev.File != "" {
				count[fileOp{ev.File, ev.Op}]++
				dur[fileOp{ev.File, ev.Op}] += int64(ev.Duration)
			}
		}
		got := 0
		for file, st := range sum.Files {
			for _, op := range pablo.Ops() {
				k := fileOp{file, op}
				if st.Count[op] != count[k] || int64(st.Duration[op]) != dur[k] {
					t.Errorf("%s: %s %s: summary %d ops %v, trace %d ops %v",
						c.name, file, op, st.Count[op], st.Duration[op], count[k], dur[k])
				}
				if st.Count[op] > 0 {
					got++
				}
			}
		}
		if got != len(count) {
			t.Errorf("%s: summary covers %d (file, op) pairs, trace %d", c.name, got, len(count))
		}
		res.Trace.Release()
	}
	// Measured cells are keyed by (app, config with tiers), not by the
	// ladder that asked: the two PRISM C runs under the same tiers share
	// one cell.
	if traced, measured := s.runKinds(); measured != len(cases)-1 || traced != 0 {
		t.Errorf("suite holds %d measured and %d trace runs for %d cases with one repeat", measured, traced, len(cases))
	}
}

// TestSuiteRetainsOnlyTraceRuns pins the suite's memory rule after a
// full RunAll: the events it still holds are exactly the seven canonical
// traces, the 31 what-if and progression runs are summaries (a type with
// no field that can hold events), and no canonical run is a summary.
func TestSuiteRetainsOnlyTraceRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	s := sharedSuite
	if _, err := RunAll(s, nil, 0); err != nil {
		t.Fatal(err)
	}
	canonicalKeys := map[string]bool{}
	for _, id := range []string{"escat/ethylene/A", "escat/ethylene/B", "escat/ethylene/C", "escat/co/C",
		"prism/A", "prism/B", "prism/C"} {
		canonicalKeys[ConfigKey(s.cfg(), id)] = true
	}
	wantEvents := 0
	for _, g := range goldenDigests {
		wantEvents += g.events
	}

	traced, measured := s.runKinds()
	s.mu.Lock()
	defer s.mu.Unlock()
	held := 0
	for key, c := range s.runs {
		switch {
		case c.res != nil:
			if !canonicalKeys[key] {
				t.Errorf("trace run %s is not one of the seven canonical runs", key)
			}
			held += c.res.Trace.Len()
		case canonicalKeys[key]:
			t.Errorf("canonical run %s kept no trace", key)
		case c.sum == nil || c.sum.Events == 0:
			t.Errorf("measured run %s has no summary", key)
		}
	}
	if traced != len(canonicalKeys) || held != wantEvents {
		t.Errorf("suite holds %d trace runs with %d events, want %d runs with %d events",
			traced, held, len(canonicalKeys), wantEvents)
	}
	if measured != 31 {
		t.Errorf("suite holds %d measured runs, want 31", measured)
	}
	holders := []reflect.Type{reflect.TypeOf(&pablo.Trace{}), reflect.TypeOf([]pablo.Event(nil)), reflect.TypeOf(&core.Result{})}
	typ := reflect.TypeOf(RunSummary{})
	for i := 0; i < typ.NumField(); i++ {
		for _, h := range holders {
			if typ.Field(i).Type == h {
				t.Errorf("RunSummary.%s is a %s: a measured run could hold events", typ.Field(i).Name, h)
			}
		}
	}
}

// runKinds counts the suite's trace runs (a kept Result) and measured
// runs (a summary only).
func (s *Suite) runKinds() (traced, measured int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.runs {
		if c.res != nil {
			traced++
		} else {
			measured++
		}
	}
	return traced, measured
}
