// Package core is the public façade of the reproduction: it assembles
// the simulated platform (kernel + mesh + PFS) with Pablo tracing, runs
// an application script on it, and returns the captured trace together
// with run metadata — the exact workflow of the paper's methodology
// (instrument, execute, analyze).
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/cache"
	"paragonio/internal/disk"
	"paragonio/internal/faults"
	"paragonio/internal/mesh"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/sim"
	"paragonio/internal/workload"
)

// Config selects the platform configuration for a run. The zero value of
// each field means "the paper's machine" (Caltech 512-node Paragon,
// 16 I/O nodes, 64 KB stripes). The RAID-3 arrays and the file system's
// software costs are always the paper machine's (disk.DefaultParams and
// the constants in internal/pfs/costs.go).
type Config struct {
	Nodes int          // compute nodes the application uses (required)
	Mesh  *mesh.Config // interconnect override
	// IONodes overrides the number of I/O nodes (default 16).
	IONodes int
	// StripeUnit overrides the PFS stripe unit (default 64 KB).
	StripeUnit int64
	// Seed drives all workload randomness; runs are bit-reproducible
	// for a given (Config, application) pair.
	Seed int64
	// SampleInterval, when positive, installs a utilization sampler
	// that snapshots the file system's queues and disk busy time at
	// this virtual period (Result.Samples).
	SampleInterval time.Duration
	// Tiers configures the what-if storage hierarchy (I/O-node buffer
	// cache, lease-coherent client tier, and/or host-side log tier; see
	// cache.Tiers). The paper's machine had none of them, so canonical
	// runs leave it zero and stay bit-identical to the golden digests.
	Tiers cache.Tiers
	// Faults is the injected fault plan (degraded RAID-3 arrays, I/O-node
	// crashes with failover, stragglers, flapping clients; see
	// internal/faults). Faults are scheduled DES events, so degraded runs
	// are exactly as deterministic as healthy ones; the zero value keeps
	// the machine healthy and the golden digests untouched.
	Faults faults.Plan
	// Shards is ignored: the simulation kernel is single-threaded.
	//
	// Deprecated: runs parallelize across configurations (iotables -j,
	// sweep fan-out), never within one. The field remains so existing
	// callers compile.
	Shards int
}

// Platform is an assembled simulated machine with tracing attached.
// Trace is the platform's recorder when that is a *pablo.Trace (always,
// for NewPlatform) and nil otherwise.
type Platform struct {
	Machine *workload.Machine
	Trace   *pablo.Trace
}

// NewPlatform builds a traced platform from cfg.
func NewPlatform(cfg Config) (*Platform, error) {
	return newPlatform(cfg, pablo.NewTrace())
}

// newPlatform builds the platform cfg selects, recording its events to
// rec.
func newPlatform(cfg Config, rec pablo.Tracer) (*Platform, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: Config.Nodes must be positive, got %d", cfg.Nodes)
	}
	m, err := mesh.New(cfg.meshConfig())
	if err != nil {
		return nil, err
	}
	if err := CheckIONodes(cfg); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	fcfg := pfs.DefaultConfig(m)
	if cfg.IONodes != 0 {
		fcfg.IONodes = cfg.IONodes
	}
	if cfg.StripeUnit != 0 {
		fcfg.StripeUnit = cfg.StripeUnit
	}
	fcfg.Tiers = cfg.Tiers
	fcfg.Faults = cfg.Faults
	fs, err := pfs.New(k, fcfg, rec)
	if err != nil {
		return nil, err
	}
	wm, err := workload.NewMachine(k, m, fs, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	tr, _ := rec.(*pablo.Trace)
	return &Platform{Machine: wm, Trace: tr}, nil
}

// CheckIONodes reports whether the I/O nodes cfg selects (IONodes, or
// pfs.DefaultIONodes when zero) all have a place on its mesh: they fill
// the mesh column by column from the last (mesh.IONodeCoord), so more
// than Rows*Cols would be placed off it.
func CheckIONodes(cfg Config) error {
	mcfg, n := cfg.meshConfig(), cfg.IONodes
	if n == 0 {
		n = pfs.DefaultIONodes
	}
	if n > mcfg.Rows*mcfg.Cols {
		return fmt.Errorf("core: %d I/O nodes do not fit in a %dx%d mesh", n, mcfg.Rows, mcfg.Cols)
	}
	return nil
}

// meshConfig returns the interconnect cfg selects: Mesh, or the paper's.
func (cfg Config) meshConfig() mesh.Config {
	if cfg.Mesh != nil {
		return *cfg.Mesh
	}
	return mesh.DefaultConfig()
}

// Result captures one application execution: wall-clock (virtual)
// execution time, the full Pablo trace, per-phase windows, and storage-
// layer statistics.
type Result struct {
	App     string
	Version string
	Nodes   int
	Exec    time.Duration
	Trace   *pablo.Trace
	Phases  []analysis.PhaseWindow
	IONodes []disk.Stats
	// Samples holds utilization snapshots when Config.SampleInterval
	// was set (nil otherwise).
	Samples []pfs.UtilSample
	// Cache holds per-I/O-node cache statistics when the I/O-node tier
	// was enabled (nil otherwise).
	Cache []cache.Stats
	// Client holds the client tier's aggregate statistics (the zero
	// value when the tier was disabled — Client.Nodes is 0 then).
	Client cache.ClientStats
	// Log holds the host-side log tier's aggregate statistics (the zero
	// value when the tier was disabled — Log.Appends is 0 then).
	Log cache.LogStats
	// Rerouted counts requests the fault plane's failover path redirected
	// away from a crashed I/O node (0 on a healthy run).
	Rerouted uint64
}

// CacheTotals aggregates the per-I/O-node cache statistics (zero when
// caching was disabled).
func (r *Result) CacheTotals() cache.Stats {
	var t cache.Stats
	for _, s := range r.Cache {
		t.Add(s)
	}
	return t
}

// IOTime returns the summed duration of all I/O operations across nodes.
func (r *Result) IOTime() time.Duration { return r.Trace.TotalIOTime() }

// IOPercent returns summed I/O time as a percentage of summed node time
// (Exec x Nodes) — the accounting behind the paper's Table 3.
func (r *Result) IOPercent() float64 {
	if r.Exec <= 0 || r.Nodes <= 0 {
		return 0
	}
	return 100 * float64(r.IOTime()) / (float64(r.Exec) * float64(r.Nodes))
}

// Run executes script on a freshly built platform and packages the
// Result. The script receives the machine and must spawn its node
// processes (typically via Machine.SpawnNodes); Run drives the kernel to
// completion and snapshots the outcome.
func Run(cfg Config, app, version string, script func(m *workload.Machine, seed int64) error) (*Result, error) {
	return RunContext(context.Background(), cfg, app, version, script)
}

// RunContext is Run with cancellation: the simulation kernel polls for
// cancellation before each instant's dispatch and, when the context is
// cancelled or times out, unwinds every simulated process and returns
// the context's error (errors.Is-matchable against context.Canceled /
// context.DeadlineExceeded). A background context adds no polling, so
// canonical runs — and their golden trace digests — are untouched.
func RunContext(ctx context.Context, cfg Config, app, version string, script func(m *workload.Machine, seed int64) error) (*Result, error) {
	return RunTo(ctx, cfg, pablo.NewTrace(), app, version, script)
}

// RunTo is RunContext with the run's events recorded to rec, which may
// keep them (a *pablo.Trace) or fold them as they arrive (a *pablo.Tally).
// Result.Trace is rec when rec is a *pablo.Trace and nil otherwise, so
// the caller of a non-Trace run reads its I/O totals from rec, not from
// the Result.
func RunTo(ctx context.Context, cfg Config, rec pablo.Tracer, app, version string, script func(m *workload.Machine, seed int64) error) (*Result, error) {
	p, err := newPlatform(cfg, rec)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		// The kernel polls before every instant, and ctx.Err locks the
		// context, so the check loads a flag that AfterFunc raises.
		// AfterFunc calls its function on a goroutine of its own even
		// for a ctx already done, so that case raises the flag here.
		var done atomic.Bool
		defer context.AfterFunc(ctx, func() { done.Store(true) })()
		if ctx.Err() != nil {
			done.Store(true)
		}
		p.Machine.K.SetCancel(func() error {
			if done.Load() {
				return ctx.Err()
			}
			return nil
		})
	}
	var sampler *pfs.Sampler
	if cfg.SampleInterval > 0 {
		sampler = pfs.NewSampler(p.Machine.FS, cfg.SampleInterval)
	}
	if err := script(p.Machine, cfg.Seed); err != nil {
		return nil, err
	}
	if err := p.Machine.K.Run(); err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", app, version, err)
	}
	p.Machine.EndPhases()
	res := &Result{
		App:      app,
		Version:  version,
		Nodes:    cfg.Nodes,
		Exec:     p.Machine.K.Now(),
		Trace:    p.Trace,
		Phases:   p.Machine.Phases(),
		IONodes:  p.Machine.FS.IONodeStats(),
		Cache:    p.Machine.FS.CacheStats(),
		Client:   p.Machine.FS.ClientStats(),
		Log:      p.Machine.FS.LogStats(),
		Rerouted: p.Machine.FS.Rerouted(),
	}
	if sampler != nil {
		res.Samples = sampler.Samples()
	}
	return res, nil
}
