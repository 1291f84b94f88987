package experiments

import (
	"reflect"
	"testing"

	"paragonio/internal/apps/escat"
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
		run   runFunc
		fetch func() (*RunSummary, error)
	}
	tiered := func(a app, v variant) measuredCase {
		cfg := s.cfg()
		cfg.Tiers = v.tiers
		return measuredCase{a.id + " " + v.id, cfg, a.run,
			func() (*RunSummary, error) { return s.underTiers(a, v.tiers) }}
	}
	cases := []measuredCase{
		tiered(ethC, wb32),
		tiered(prismC, wb32),
		tiered(prismC, both),
		tiered(ethC, logOnly),
		tiered(prismC, logOnly),
		tiered(ethC, both),
		tiered(prismC, both), // an advised rerun landing on a ladder rung's tiers
		{"prog/B1", s.cfg(), runEthylene(b1),
			func() (*RunSummary, error) { return s.measure("prog/B1", s.cfg(), runEthylene(b1)) }},
	}
	for _, c := range cases {
		sum, err := c.fetch()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := c.run(c.cfg)
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
	if len(s.measured) != len(cases)-1 {
		t.Errorf("suite holds %d measured runs for %d cases with one repeat", len(s.measured), len(cases))
	}
}

// TestSuiteRetainsOnlyTraceRuns pins the suite's memory rule after a
// full RunAll: the events it still holds are exactly the seven canonical
// traces, the 31 what-if and progression runs are summaries (a type with
// no field that can hold events), and no run is both.
func TestSuiteRetainsOnlyTraceRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	s := sharedSuite
	if _, err := RunAll(s, nil, 0); err != nil {
		t.Fatal(err)
	}
	canonical := map[string]bool{}
	for _, id := range []string{"eth/A", "eth/B", "eth/C", "co/C", "prism/A", "prism/B", "prism/C"} {
		canonical[ConfigKey(s.cfg(), id)] = true
	}
	wantEvents := 0
	for _, g := range goldenDigests {
		wantEvents += g.events
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	held := 0
	for key, tr := range s.traces {
		if !canonical[key] {
			t.Errorf("trace run %s is not one of the seven canonical runs", key)
		}
		held += tr.res.Trace.Len()
	}
	if len(s.traces) != len(canonical) || held != wantEvents {
		t.Errorf("suite holds %d trace runs with %d events, want %d runs with %d events",
			len(s.traces), held, len(canonical), wantEvents)
	}
	if len(s.measured) != 31 {
		t.Errorf("suite holds %d measured runs, want 31", len(s.measured))
	}
	for key, m := range s.measured {
		if s.traces[key] != nil {
			t.Errorf("run %s is both a trace run and a measured run", key)
		}
		if m.sum == nil || m.sum.Events == 0 {
			t.Errorf("measured run %s has no summary", key)
		}
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
