// Package experiments maps every table and figure of the paper's
// evaluation to a runnable experiment: each regenerates its artifact
// from fresh simulated runs and reports measured values side by side
// with the paper's, so the reproduction quality is auditable (see
// EXPERIMENTS.md for the recorded comparison). The what-if studies
// compare against a baseline machine or policy instead.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"paragonio/internal/apps"
	"paragonio/internal/apps/escat"
	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/report"
)

// Suite caches application runs shared by multiple experiments (the
// ESCAT ethylene traces feed Tables 1-3 and Figures 1-5; the PRISM
// traces feed Table 4-5 and Figures 6-9). Runs are deterministic in the
// seed. Every run is a catalogue run (internal/apps) in one table, keyed
// by ConfigKey(cfg-with-tiers, run.Identity()): the content address
// iosimd gives the same run.
//
// The suite keeps two kinds of run, Pablo's split between full event
// traces and statistical summaries, and get alone decides which a run
// is. Trace runs are the seven canonical paper runs (escat/ethylene/A|B|C,
// escat/co/C, prism/A|B|C) with the tiers off: the tables, the figures
// and the advisor's classifier read them event by event, so they keep
// their full trace. Measured runs are everything else — the what-if
// rungs, the advised reruns and the non-canonical Figure 1 builds —
// which are only ever read through run-level totals and per-file
// operation times. A measured run records no events: it runs with a
// pablo.Tally, which folds each event into the run's totals as it is
// recorded, and keeps the RunSummary made from it.
//
// A Suite is safe for concurrent use: each distinct run executes exactly
// once (concurrent requesters of the same run wait for the first), and
// distinct runs proceed in parallel — each builds its own single-threaded
// simulation kernel, so results are identical to serial execution.
type Suite struct {
	Seed int64

	mu   sync.Mutex
	runs map[string]*suiteRun
}

// suiteRun is the singleflight cell of one run. A trace run keeps res
// and makes sum from its trace on first request; a measured run keeps
// only sum, made as it runs.
type suiteRun struct {
	once, sumOnce sync.Once
	res           *core.Result
	sum           *RunSummary
	err           error
}

// canonical holds the identities of the seven paper runs whose events
// the suite keeps.
var canonical = map[string]bool{
	"escat/ethylene/A": true, "escat/ethylene/B": true, "escat/ethylene/C": true,
	"escat/co/C": true, "prism/A": true, "prism/B": true, "prism/C": true,
}

// The version-C runs the what-if ladders re-run.
var (
	ethC   = mustLookup("escat", "ethylene", "C")
	coC    = mustLookup("escat", "co", "C")
	prismC = mustLookup("prism", "", "C")
)

func mustLookup(app, dataset, version string) apps.Run {
	r, err := apps.Lookup(app, dataset, version)
	if err != nil {
		panic(err)
	}
	return r
}

// variant is one rung of an application-scale what-if ladder.
type variant struct {
	id, label string
	tiers     cache.Tiers
}

// tiersOf returns the tiers of the variant in vs with the given id.
func tiersOf(vs []variant, id string) cache.Tiers {
	for _, v := range vs {
		if v.id == id {
			return v.tiers
		}
	}
	panic("experiments: no variant " + id)
}

// NewSuite creates an empty suite; runs happen lazily.
func NewSuite(seed int64) *Suite {
	return &Suite{Seed: seed}
}

// Release hands every trace run's buffer back to the pablo event pool
// and empties the run table. Measured runs never held a trace, so only
// the trace runs are recycled here. Call it when the suite's results —
// including every Events() view derived from them — are no longer
// referenced: the buffers will be overwritten by the next recording
// run. High-churn callers (benchmark re-runs, batch drivers creating a
// suite per pass) use it to recycle the dominant allocation of a pass;
// everyone else can let the GC do the work.
func (s *Suite) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.runs {
		if c.res != nil && c.res.Trace != nil {
			c.res.Trace.Release()
		}
	}
	s.runs = nil
}

// cfg returns the platform configuration all suite runs share.
func (s *Suite) cfg() core.Config {
	return core.Config{Seed: s.Seed}
}

// get returns the cell of r under tiers, executing the run on first use.
// The key is ConfigKey(cfg-with-tiers, r.Identity()), so every ladder
// rung and advised rerun that lands on the same tiers shares one run, and
// a Suite whose Seed field is mutated after runs began never serves a
// result computed under the old configuration. One of the seven
// canonical runs with the tiers off records a pablo.Trace and keeps its
// Result; every other run records to a pablo.Tally and keeps only its
// RunSummary, so it holds no events at any point.
func (s *Suite) get(r apps.Run, tiers cache.Tiers) *suiteRun {
	cfg := s.cfg()
	cfg.Tiers = tiers
	key := ConfigKey(cfg, r.Identity())
	s.mu.Lock()
	if s.runs == nil {
		s.runs = make(map[string]*suiteRun)
	}
	c, ok := s.runs[key]
	if !ok {
		c = new(suiteRun)
		s.runs[key] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		if !tiers.Enabled() && canonical[r.Identity()] {
			c.res, c.err = r.Exec(context.Background(), cfg)
			return
		}
		var tally pablo.Tally
		res, err := r.ExecTo(context.Background(), cfg, &tally)
		if err != nil {
			c.err = err
			return
		}
		c.sumOnce.Do(func() { c.sum = newRunSummary(res, &tally) })
	})
	return c
}

// underTiers returns the summary of r under tiers. A canonical trace
// run folds its summary from its trace on first request and keeps the
// trace: the summary is what a tiers-off what-if rung reads of it.
func (s *Suite) underTiers(r apps.Run, tiers cache.Tiers) (*RunSummary, error) {
	c := s.get(r, tiers)
	if c.err != nil {
		return nil, c.err
	}
	c.sumOnce.Do(func() {
		var tally pablo.Tally
		for _, ev := range c.res.Trace.Events() {
			tally.Record(ev)
		}
		c.sum = newRunSummary(c.res, &tally)
	})
	return c.sum, nil
}

// paperRun returns the Result of the canonical run (app, dataset,
// version), executing it on first use.
func (s *Suite) paperRun(app, dataset, version string) (*core.Result, error) {
	r, err := apps.Lookup(app, dataset, version)
	if err != nil {
		return nil, err
	}
	if !canonical[r.Identity()] {
		return nil, fmt.Errorf("experiments: %s is not one of the seven paper runs", r.Identity())
	}
	c := s.get(r, cache.Tiers{})
	return c.res, c.err
}

// Ethylene returns the cached ESCAT ethylene run for a paper version
// ("A", "B", "C"), executing it on first use.
func (s *Suite) Ethylene(id string) (*core.Result, error) {
	return s.paperRun("escat", "ethylene", id)
}

// CarbonMonoxide returns the cached ESCAT carbon-monoxide version C run.
func (s *Suite) CarbonMonoxide() (*core.Result, error) { return s.paperRun("escat", "co", "C") }

// Prism returns the cached PRISM run for a version ("A", "B", "C").
func (s *Suite) Prism(id string) (*core.Result, error) { return s.paperRun("prism", "", id) }

// Progressions returns the summaries of the six ESCAT builds of Figure
// 1, in order, made concurrently. The builds identical to paper versions
// share the Ethylene trace runs; the others are measured runs.
func (s *Suite) Progressions() ([]*RunSummary, error) {
	versions := escat.Progressions()
	out := make([]*RunSummary, len(versions))
	err := core.Each(len(versions), len(versions), func(i int) (err error) {
		out[i], err = s.underTiers(mustLookup("escat", "ethylene", versions[i].ID), cache.Tiers{})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Artifact is one regenerated table or figure, or one what-if study,
// with its measured metrics and the reference they are compared against.
type Artifact struct {
	ID string // "table2", "figure5", "faults", ...
	// Text is the rendered artifact (table or character plot) plus the
	// comparison rows.
	Text string
	// Paper holds the publication's values of a paper artifact; Baseline
	// holds a what-if study's reference machine or policy. An artifact
	// fills exactly one of them, and Measured has each of its keys.
	Paper    map[string]float64
	Baseline map[string]float64
	Measured map[string]float64
	// Notes records known reproduction deviations.
	Notes string
}

// Reference returns what the artifact's measured metrics are compared
// against: "baseline" and Baseline for a what-if study, else "paper"
// and Paper.
func (a *Artifact) Reference() (label string, ref map[string]float64) {
	if a.Baseline != nil {
		return "baseline", a.Baseline
	}
	return "paper", a.Paper
}

// MetricKeys returns the artifact's comparison keys, sorted.
func (a *Artifact) MetricKeys() []string {
	_, ref := a.Reference()
	return report.SortedKeys(ref)
}

// Experiment is one runnable artifact. Its Title is the artifact's one
// title: iotables prints it above the artifact and at the top of the
// artifact's -out file.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite) (*Artifact, error)
}

// All returns every experiment in paper order: tables 1-5, figures 1-9.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: ESCAT node activity and file access modes", Run: table1},
		{ID: "table2", Title: "Table 2: ESCAT aggregate I/O time by operation (%)", Run: table2},
		{ID: "table3", Title: "Table 3: ESCAT % of execution time by I/O operation", Run: table3},
		{ID: "table4", Title: "Table 4: PRISM node activity and file access modes", Run: table4},
		{ID: "table5", Title: "Table 5: PRISM aggregate I/O time by operation (%)", Run: table5},
		{ID: "figure1", Title: "Figure 1: ESCAT execution time across six progressions", Run: figure1},
		{ID: "figure2", Title: "Figure 2: ESCAT CDFs of request sizes and data transfers", Run: figure2},
		{ID: "figure3", Title: "Figure 3: ESCAT read sizes over time (A vs C)", Run: figure3},
		{ID: "figure4", Title: "Figure 4: ESCAT write sizes over time (A vs C)", Run: figure4},
		{ID: "figure5", Title: "Figure 5: ESCAT seek durations (B vs C)", Run: figure5},
		{ID: "figure6", Title: "Figure 6: PRISM execution time across three versions", Run: figure6},
		{ID: "figure7", Title: "Figure 7: PRISM CDFs of request sizes and data transfers", Run: figure7},
		{ID: "figure8", Title: "Figure 8: PRISM read sizes over time (A/B/C)", Run: figure8},
		{ID: "figure9", Title: "Figure 9: PRISM write sizes over time (C)", Run: figure9},
		{ID: "cachewhatif", Title: "What-if: I/O-node buffer cache (write-behind / read-ahead)", Run: cacheWhatIf},
		{ID: "clientcache", Title: "What-if: client cache tier with lease coherence", Run: clientCache},
		{ID: "advisor", Title: "Closed loop: advised cache tiers vs oracle-best sweeps", Run: advisorExp},
		{ID: "flushpolicy", Title: "Flush-policy study: high-water + idle vs deadline write-behind", Run: flushPolicy},
		{ID: "faults", Title: "Fault study: checkpoint workloads on a degraded machine", Run: faultsExp},
		{ID: "logtier", Title: "Log tier study: host-side burst buffer vs server write-behind", Run: logTierExp},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes exps (nil means All()) against the suite with up to
// workers experiments in flight at once, returning the artifacts in exps
// order. workers <= 0 means GOMAXPROCS. Artifacts depend only on their
// (deterministic, cached) application runs, so the output is identical
// to running each experiment serially; on error, the first failure in
// exps order is reported.
func RunAll(s *Suite, exps []Experiment, workers int) ([]*Artifact, error) {
	if exps == nil {
		exps = All()
	}
	arts := make([]*Artifact, len(exps))
	err := core.Each(len(exps), workers, func(i int) (err error) {
		if arts[i], err = exps[i].Run(s); err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return arts, nil
}
