// Package experiments maps every table and figure of the paper's
// evaluation to a runnable experiment: each regenerates its artifact
// from fresh simulated runs and reports measured values side by side
// with the paper's, so the reproduction quality is auditable (see
// EXPERIMENTS.md for the recorded comparison).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
)

// Suite caches application runs shared by multiple experiments (the
// ESCAT ethylene traces feed Tables 1-3 and Figures 1-5; the PRISM
// traces feed Table 4-5 and Figures 6-9). Runs are deterministic in the
// seed.
//
// The suite keeps two kinds of run, Pablo's split between full event
// traces and statistical summaries. Trace runs are the seven canonical
// paper runs (eth/A|B|C, co/C, prism/A|B|C): the tables, the figures and
// the advisor's classifier read them event by event, so they keep their
// full trace. Measured runs are everything else — the what-if rungs, the
// advised reruns and the non-canonical Figure 1 builds — which are only
// ever read through run-level totals and per-file operation times. A
// measured run keeps a RunSummary; its trace goes back to the pablo
// event pool as soon as the summary is made, so the next run reuses the
// buffer.
//
// A Suite is safe for concurrent use: each distinct run executes exactly
// once (concurrent requesters of the same run wait for the first), and
// distinct runs proceed in parallel — each builds its own single-threaded
// simulation kernel, so results are identical to serial execution.
type Suite struct {
	Seed int64
	// Shards, when >= 2, runs every application on a sharded simulation
	// kernel with that many conservative lanes (see core.Config.Shards).
	// Results are bit-identical to the single-threaded kernel for every
	// value — the golden-digest tests enforce it.
	Shards int
	// Window overrides the sync-window width of sharded runs (see
	// core.Config.Window). 0 uses the full lookahead.
	Window time.Duration

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

// runFunc makes one application run under a configuration.
type runFunc func(core.Config) (*core.Result, error)

func runEthylene(v escat.Version) runFunc {
	return func(cfg core.Config) (*core.Result, error) { return escat.RunOn(cfg, escat.Ethylene(), v) }
}

func runCarbonMonoxide(cfg core.Config) (*core.Result, error) {
	return escat.RunOn(cfg, escat.CarbonMonoxide(), escat.VersionCCarbonMonoxide())
}

func runPrism(v prism.Version) runFunc {
	return func(cfg core.Config) (*core.Result, error) { return prism.RunOn(cfg, prism.TestProblem(), v) }
}

// app is a version-C workload the what-if ladders re-run: the id of its
// canonical trace run and how to run it.
type app struct {
	id  string
	run runFunc
}

var (
	ethC   = app{"eth/C", runEthylene(escat.VersionC())}
	coC    = app{"co/C", runCarbonMonoxide}
	prismC = app{"prism/C", runPrism(prism.VersionC())}
)

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

// underTiers returns the summary of a's run under tiers. A tiers-off run
// is the canonical trace run's summary. Any other is a measured run keyed
// by ConfigKey(cfg-with-tiers, a.id), so every ladder rung and advised
// rerun that lands on the same tiers shares one run.
func (s *Suite) underTiers(a app, tiers cache.Tiers) (*RunSummary, error) {
	if !tiers.Enabled() {
		return summaryOf(s.trace(a.id, a.run), nil)
	}
	cfg := s.cfg()
	cfg.Tiers = tiers
	return s.measure(a.id, cfg, a.run)
}

// NewSuite creates an empty suite; runs happen lazily.
func NewSuite(seed int64) *Suite {
	return &Suite{Seed: seed}
}

// Release hands every trace run's buffer back to the pablo event pool
// and empties the run cache. Measured runs hold no trace — theirs went
// back to the pool when their summary was made — so only the trace runs
// are recycled here. Call it when the suite's results — including every
// Events() view derived from them — are no longer referenced: the
// buffers will be overwritten by the next recording run. High-churn
// callers (benchmark re-runs, batch drivers creating a suite per pass)
// use it to recycle the dominant allocation of a pass; everyone else can
// let the GC do the work.
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
	return core.Config{Seed: s.Seed, Shards: s.Shards, Window: s.Window}
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

// trace returns the trace run identified by id, executing f on first
// use. The cache key is ConfigKey(s.cfg(), id) rather than id alone, so
// a Suite whose Seed/Shards/Window fields are mutated after runs began
// never serves a result computed under the old configuration — the new
// configuration simply misses and recomputes.
func (s *Suite) trace(id string, f runFunc) *traceRun {
	cfg := s.cfg()
	t := cell(s, &s.traces, ConfigKey(cfg, id))
	t.once.Do(func() { t.res, t.err = f(cfg) })
	return t
}

// measure returns the summary of the measured run id under cfg,
// executing f on first use. It is keyed by ConfigKey(cfg, id), so every
// field that can change the run — tiers included — separates entries.
// The run's trace lives only until its summary is made.
func (s *Suite) measure(id string, cfg core.Config, f runFunc) (*RunSummary, error) {
	m := cell(s, &s.measured, ConfigKey(cfg, id))
	m.once.Do(func() {
		res, err := f(cfg)
		if err != nil {
			m.err = err
			return
		}
		m.sum = summarize(res)
		res.Trace.Release()
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
	t.sumOnce.Do(func() { t.sum = summarize(t.res) })
	return t.sum, nil
}

func (s *Suite) ethylene(id string) (*traceRun, error) {
	var v escat.Version
	switch id {
	case "A":
		v = escat.VersionA()
	case "B":
		v = escat.VersionB()
	case "C":
		v = escat.VersionC()
	default:
		return nil, fmt.Errorf("experiments: unknown ESCAT version %q", id)
	}
	return s.trace("eth/"+id, runEthylene(v)), nil
}

func (s *Suite) carbonMonoxide() (*traceRun, error) {
	return s.trace("co/C", runCarbonMonoxide), nil
}

func (s *Suite) prism(id string) (*traceRun, error) {
	var v prism.Version
	switch id {
	case "A":
		v = prism.VersionA()
	case "B":
		v = prism.VersionB()
	case "C":
		v = prism.VersionC()
	default:
		return nil, fmt.Errorf("experiments: unknown PRISM version %q", id)
	}
	return s.trace("prism/"+id, runPrism(v)), nil
}

// Ethylene returns the cached ESCAT ethylene run for a paper version
// ("A", "B", "C"), executing it on first use.
func (s *Suite) Ethylene(id string) (*core.Result, error) { return resultOf(s.ethylene(id)) }

// CarbonMonoxide returns the cached ESCAT carbon-monoxide version C run.
func (s *Suite) CarbonMonoxide() (*core.Result, error) { return resultOf(s.carbonMonoxide()) }

// Prism returns the cached PRISM run for a version ("A", "B", "C").
func (s *Suite) Prism(id string) (*core.Result, error) { return resultOf(s.prism(id)) }

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
			switch v.ID {
			case "A", "B", "C": // identical builds to the paper versions
				out[i], errs[i] = summaryOf(s.ethylene(v.ID))
			default:
				out[i], errs[i] = s.measure("prog/"+v.ID, s.cfg(), runEthylene(v))
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
func (a *Artifact) MetricKeys() []string {
	keys := make([]string, 0, len(a.Paper))
	for k := range a.Paper {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

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
