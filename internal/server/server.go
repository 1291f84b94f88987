// Package server is the iosimd daemon: a long-running HTTP/JSON service
// that answers what-if simulation requests (application × version ×
// machine × cache tiers × fault plan) against the simulated Paragon XP/S.
//
// Three concerns shape it:
//
//   - Content-addressed result caching. A finished run's response body
//     is stored under experiments.ConfigKey — the canonical hash of the
//     full request configuration — in a byte-budgeted in-memory LRU
//     with optional disk spill, so a repeated what-if is served in
//     microseconds instead of re-simulating. Concurrent identical
//     requests coalesce onto one in-flight run, which stores its
//     result once before answering them.
//
//   - Admission control. Simulations are CPU-bound and single-threaded,
//     so each run holds one slot of a pool sized off GOMAXPROCS. Waiters
//     queue in bounded per-client FIFO queues, and grants rotate
//     round-robin across clients (see Admitter); a full queue is shed
//     fast with 429 + Retry-After, and every run carries a deadline and
//     dies with its client.
//
//   - Observability. Hand-rolled Prometheus text exposition at
//     /metrics, plus /healthz. Request, latency and sweep series are
//     counted in the request path; the cache and admission series are
//     read from ResultCache.Stats and Admitter.Stats at scrape, so the
//     stores are the one owner of their counts.
package server

import (
	"net/http"
	"runtime"
	"sync"
	"time"

	"paragonio/internal/experiments"
	"paragonio/internal/server/metrics"
)

// Config sizes the daemon. Zero fields take documented defaults.
type Config struct {
	// Timeout bounds each simulation run (default 5 minutes).
	Timeout time.Duration
	// Slots is the admission slot pool (default GOMAXPROCS).
	Slots int
	// MaxQueue bounds the admission wait queue (default 4 × Slots).
	MaxQueue int
	// CacheBytes is the in-memory result-cache budget (default 64 MB).
	CacheBytes int64
	// SpillDir, when non-empty, enables write-through disk spill of
	// result artifacts (created if missing) and warm-start indexing of
	// artifacts left by a previous daemon run.
	SpillDir string
	// MaxSweepPoints caps the expanded grid size a single /v1/sweep may
	// declare (default 256).
	MaxSweepPoints int
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Minute
	}
	if c.Slots == 0 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Slots
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 256
	}
	return c
}

// Server is the daemon's state: result cache, admission controller,
// metrics registry, and the in-flight run table.
type Server struct {
	cfg   Config
	adm   *Admitter
	cache *ResultCache
	reg   *metrics.Registry
	mux   *http.ServeMux

	flightMu sync.Mutex
	flights  map[string]*flight

	// runSim executes one validated simulate request; tests stub it to
	// pin handler behavior (429, timeouts) without burning CPU on runs.
	runSim runFunc

	requests    *metrics.CounterVec
	simLatency  *metrics.Histogram
	advLatency  *metrics.Histogram
	runSeconds  *metrics.Histogram
	coalesced   *metrics.Counter
	sweepPoints *metrics.Counter
	sweepDedup  *metrics.CounterVec
	faultRuns   *metrics.Counter
	runPanics   *metrics.Counter
}

// New builds a daemon from cfg.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewResultCache(cfg.CacheBytes, cfg.SpillDir, experiments.KeyVersion)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		adm:     NewAdmitter(cfg.Slots, cfg.MaxQueue),
		cache:   cache,
		reg:     metrics.NewRegistry(),
		mux:     http.NewServeMux(),
		flights: make(map[string]*flight),
		runSim:  defaultRun,
	}
	s.wireMetrics()
	s.wireRoutes()
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// WarmEntries reports how many result artifacts the warm-start scan
// indexed from the spill directory at boot.
func (s *Server) WarmEntries() int { return s.cache.Stats().Spilled }

func (s *Server) wireMetrics() {
	r := s.reg
	s.requests = r.CounterVec("iosimd_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.simLatency = r.Histogram("iosimd_request_seconds",
		"End-to-end request latency in seconds.",
		metrics.DefaultLatencyBuckets(), "endpoint", "simulate")
	s.advLatency = r.Histogram("iosimd_request_seconds",
		"End-to-end request latency in seconds.",
		metrics.DefaultLatencyBuckets(), "endpoint", "advise")
	s.runSeconds = r.Histogram("iosimd_run_seconds",
		"Wall-clock duration of simulation engine runs in seconds.",
		metrics.DefaultLatencyBuckets())
	s.coalesced = r.Counter("iosimd_coalesced_total",
		"Requests coalesced onto an identical in-flight run.")

	// The result cache and the admitter own their counts; these series
	// read them at scrape, so they are exact from boot.
	r.Func("iosimd_cache_hits_total", "Result-cache hits (memory or disk spill).",
		"counter", func() int64 { return s.cache.Stats().Hits })
	r.Func("iosimd_cache_misses_total", "Result-cache misses.",
		"counter", func() int64 { return s.cache.Stats().Misses })
	r.Func("iosimd_cache_evictions_total", "Result-cache LRU evictions.",
		"counter", func() int64 { return s.cache.Stats().Evictions })
	r.Func("iosimd_cache_spill_hits_total", "Result-cache hits served from the disk spill index.",
		"counter", func() int64 { return s.cache.Stats().SpillHits })
	r.Func("iosimd_cache_bytes", "Result-cache in-memory footprint in bytes.",
		"gauge", func() int64 { return s.cache.Stats().Bytes })
	r.Func("iosimd_cache_entries", "Result-cache in-memory entry count.",
		"gauge", func() int64 { return int64(s.cache.Stats().Entries) })
	r.Func("iosimd_cache_spilled_entries", "Result artifacts indexed in the disk spill directory.",
		"gauge", func() int64 { return int64(s.cache.Stats().Spilled) })
	r.Func("iosimd_queue_depth", "Requests waiting in the admission queue.",
		"gauge", func() int64 { return int64(s.adm.Stats().Waiting) })
	r.Func("iosimd_inflight_slots", "Admission slots currently held by running simulations.",
		"gauge", func() int64 { return int64(s.adm.Stats().Busy) })
	for _, kind := range []string{KindInteractive, KindSweep} {
		r.Func("iosimd_slots_held", "Admission slots currently held, by request kind.",
			"gauge", func() int64 { return int64(s.adm.Stats().Held[kind]) }, "kind", kind)
	}
	r.Func("iosimd_rejected_total", "Requests shed with 429 because the admission queue was full.",
		"counter", func() int64 { return s.adm.Stats().Rejected })
	s.sweepPoints = r.Counter("iosimd_sweep_points_total",
		"Sweep grid points planned across all /v1/sweep requests.")
	s.sweepDedup = r.CounterVec("iosimd_sweep_dedup_total",
		"Sweep points served without a fresh engine run, by dedup source.",
		"source")
	s.faultRuns = r.Counter("iosimd_fault_runs_total",
		"Admitted simulation runs carrying a non-empty fault plan.")
	s.runPanics = r.Counter("iosimd_run_panics_total",
		"Simulation runs that failed because the engine panicked.")
}

func (s *Server) wireRoutes() {
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.simLatency, s.handleSimulate))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", nil, s.handleSweep))
	s.mux.HandleFunc("POST /v1/advise", s.instrument("advise", s.advLatency, s.handleAdvise))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("experiments", nil, s.handleExperiments))
	s.mux.HandleFunc("GET /v1/results/{hash...}", s.instrument("results", nil, s.handleResults))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (sweep
// NDJSON, SDDF) can push partial responses through the instrumentation
// wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request counter and an optional
// latency histogram.
func (s *Server) instrument(endpoint string, lat *metrics.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.requests.With(endpoint, httpStatus(code)).Inc()
		if lat != nil {
			lat.Observe(time.Since(start).Seconds())
		}
	}
}

func httpStatus(code int) string {
	// Fixed-width itoa for the handful of codes the daemon emits.
	if code < 100 || code > 599 {
		return "000"
	}
	return string([]byte{'0' + byte(code/100), '0' + byte(code/10%10), '0' + byte(code%10)})
}
