// Package experiments maps every table and figure of the paper's
// evaluation to a runnable experiment: each regenerates its artifact
// from fresh simulated runs and reports measured values side by side
// with the paper's, so the reproduction quality is auditable (see
// EXPERIMENTS.md for the recorded comparison).
package experiments

import (
	"context"
	"fmt"
	"runtime"
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
// seed. Every run is a catalogue run (internal/apps), keyed by
// ConfigKey(cfg, run.Identity()): the content address iosimd gives the
// same run.
//
// The suite keeps two kinds of run, Pablo's split between full event
// traces and statistical summaries. Trace runs are the seven canonical
// paper runs (escat/ethylene/A|B|C, escat/co/C, prism/A|B|C): the tables,
// the figures and the advisor's classifier read them event by event, so
// they keep their full trace. Measured runs are everything else — the
// what-if rungs, the advised reruns and the non-canonical Figure 1 builds
// — which are only ever read through run-level totals and per-file
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

	mu       sync.Mutex
	traces   map[string]*traceRun
	measured map[string]*measuredRun
}

// traceRun is the singleflight cell of one trace run. sum is the run's
// summary, made on first request by a tiers-off what-if rung and kept
// beside the trace.
type traceRun struct {
	once    sync.Once
	res     *core.Result
	err     error
	sumOnce sync.Once
	sum     *RunSummary
}

// measuredRun is the singleflight cell of one measured run.
type measuredRun struct {
	once sync.Once
	sum  *RunSummary
	err  error
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

// underTiers returns the summary of r under tiers. A tiers-off run is
// the canonical trace run's summary. Any other is a measured run keyed
// by ConfigKey(cfg-with-tiers, r.Identity()), so every ladder rung and
// advised rerun that lands on the same tiers shares one run.
func (s *Suite) underTiers(r apps.Run, tiers cache.Tiers) (*RunSummary, error) {
	if !tiers.Enabled() {
		return summaryOf(s.trace(r), nil)
	}
	cfg := s.cfg()
	cfg.Tiers = tiers
	return s.measure(r, cfg)
}

// NewSuite creates an empty suite; runs happen lazily.
func NewSuite(seed int64) *Suite {
	return &Suite{Seed: seed}
}

// Release hands every trace run's buffer back to the pablo event pool
// and empties the run cache. Measured runs never held a trace, so only
// the trace runs are recycled here. Call it when the suite's results —
// including every Events() view derived from them — are no longer
// referenced: the buffers will be overwritten by the next recording
// run. High-churn callers (benchmark re-runs, batch drivers creating a
// suite per pass) use it to recycle the dominant allocation of a pass;
// everyone else can let the GC do the work.
func (s *Suite) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.traces {
		if t.res != nil && t.res.Trace != nil {
			t.res.Trace.Release()
		}
	}
	s.traces, s.measured = nil, nil
}

// cfg returns the platform configuration all suite runs share.
func (s *Suite) cfg() core.Config {
	return core.Config{Seed: s.Seed}
}

// cell returns the singleflight cell for key in m, creating it on first
// use.
func cell[T any](s *Suite, m *map[string]*T, key string) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if *m == nil {
		*m = make(map[string]*T)
	}
	c, ok := (*m)[key]
	if !ok {
		c = new(T)
		(*m)[key] = c
	}
	return c
}

// trace returns the trace run of r, executing it on first use. The
// cache key is ConfigKey(s.cfg(), r.Identity()) rather than the identity
// alone, so a Suite whose Seed field is mutated after runs began never
// serves a result computed under the old configuration — the new
// configuration simply misses and recomputes.
func (s *Suite) trace(r apps.Run) *traceRun {
	cfg := s.cfg()
	t := cell(s, &s.traces, ConfigKey(cfg, r.Identity()))
	t.once.Do(func() { t.res, t.err = r.Exec(context.Background(), cfg) })
	return t
}

// measure returns the summary of the measured run r under cfg, executing
// it on first use. It is keyed by ConfigKey(cfg, r.Identity()), so every
// field that can change the run — tiers included — separates entries.
// The run records to a pablo.Tally, so it holds no events at any point;
// its Result, which has no Trace, does not outlive the summary.
func (s *Suite) measure(r apps.Run, cfg core.Config) (*RunSummary, error) {
	m := cell(s, &s.measured, ConfigKey(cfg, r.Identity()))
	m.once.Do(func() {
		var tally pablo.Tally
		res, err := r.ExecTo(context.Background(), cfg, &tally)
		if err != nil {
			m.err = err
			return
		}
		m.sum = newRunSummary(res, &tally)
	})
	return m.sum, m.err
}

// resultOf unwraps a trace run's result.
func resultOf(t *traceRun, err error) (*core.Result, error) {
	if err != nil {
		return nil, err
	}
	return t.res, t.err
}

// summaryOf returns a trace run's summary, making it on first use. The
// trace is kept: the summary is what a tiers-off what-if rung reads of
// the canonical run it shares.
func summaryOf(t *traceRun, err error) (*RunSummary, error) {
	if err != nil {
		return nil, err
	}
	if t.err != nil {
		return nil, t.err
	}
	t.sumOnce.Do(func() {
		var tally pablo.Tally
		for _, ev := range t.res.Trace.Events() {
			tally.Record(ev)
		}
		t.sum = newRunSummary(t.res, &tally)
	})
	return t.sum, nil
}

// run returns the trace run of the catalogue run (app, dataset,
// version), executing it on first use.
func (s *Suite) run(app, dataset, version string) (*traceRun, error) {
	r, err := apps.Lookup(app, dataset, version)
	if err != nil {
		return nil, err
	}
	return s.trace(r), nil
}

// Ethylene returns the cached ESCAT ethylene run for a paper version
// ("A", "B", "C"), executing it on first use.
func (s *Suite) Ethylene(id string) (*core.Result, error) {
	return resultOf(s.run("escat", "ethylene", id))
}

// CarbonMonoxide returns the cached ESCAT carbon-monoxide version C run.
func (s *Suite) CarbonMonoxide() (*core.Result, error) { return resultOf(s.run("escat", "co", "C")) }

// Prism returns the cached PRISM run for a version ("A", "B", "C").
func (s *Suite) Prism(id string) (*core.Result, error) { return resultOf(s.run("prism", "", id)) }

// Progressions returns the summaries of the six ESCAT builds of Figure
// 1, in order. The builds identical to paper versions share the Ethylene
// trace runs; the others are measured runs, made concurrently.
func (s *Suite) Progressions() ([]*RunSummary, error) {
	versions := escat.Progressions()
	out := make([]*RunSummary, len(versions))
	errs := make([]error, len(versions))
	var wg sync.WaitGroup
	for i, v := range versions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := mustLookup("escat", "ethylene", v.ID)
			switch v.ID {
			case "A", "B", "C": // identical builds to the paper versions
				out[i], errs[i] = summaryOf(s.trace(r), nil)
			default:
				out[i], errs[i] = s.measure(r, s.cfg())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Artifact is one regenerated table or figure with its paper-vs-measured
// comparison.
type Artifact struct {
	ID    string // "table2", "figure5", ...
	Title string
	// Text is the rendered artifact (table or character plot) plus the
	// comparison rows.
	Text string
	// Paper and Measured hold the comparable key metrics; keys match.
	Paper    map[string]float64
	Measured map[string]float64
	// Notes records known reproduction deviations.
	Notes string
}

// MetricKeys returns the artifact's comparison keys, sorted.
func (a *Artifact) MetricKeys() []string { return report.SortedKeys(a.Paper) }

// Experiment is one runnable paper artifact.
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	arts := make([]*Artifact, len(exps))
	errs := make([]error, len(exps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				arts[i], errs[i] = exps[i].Run(s)
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	return arts, nil
}
