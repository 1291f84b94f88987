package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/disk"
	"paragonio/internal/experiments"
	"paragonio/internal/faults"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/policy"
	"paragonio/internal/sim"
)

// SimulateRequest is the body of POST /v1/simulate and /v1/advise: one
// what-if configuration. Zero fields mean the paper's machine.
type SimulateRequest struct {
	App     string `json:"app"`               // "escat" or "prism"
	Dataset string `json:"dataset,omitempty"` // escat: "ethylene" (default) or "co"
	Version string `json:"version"`           // escat: A A2 B1 B2 B3 B C; prism: A B C

	Seed       int64 `json:"seed,omitempty"`        // workload seed (default 1)
	IONodes    int   `json:"ionodes,omitempty"`     // I/O node count override
	StripeUnit int64 `json:"stripe_unit,omitempty"` // PFS stripe unit override, bytes
	Shards     int   `json:"shards,omitempty"`      // admission weight; the simulation is single-threaded
	SampleMS   int64 `json:"sample_ms,omitempty"`   // utilization sample period, ms

	Tiers *TiersRequest `json:"tiers,omitempty"`

	// Faults schedules deterministic fault injection (internal/faults):
	// the run executes on a machine that degrades at the given instants.
	// Empty means the healthy machine. The plan is part of the content
	// address, so degraded results never collide with healthy ones.
	Faults []FaultRequest `json:"faults,omitempty"`

	// SDDF, on /v1/simulate, streams the run's SDDF event trace as
	// text instead of the JSON summary. SDDF responses bypass the
	// result cache (they are bulky and cheap to regenerate from a
	// cached config decision is deliberate) but not admission control.
	SDDF bool `json:"sddf,omitempty"`
}

// FaultRequest is one injected fault. Kind selects which other fields
// apply (see internal/faults for the per-kind contract): disk-fail and
// node-crash take ionode (+ until_ms for a repaired drive); straggler
// takes ionode and factor; client-flap takes node, and optionally
// period_ms + count for a recall storm.
type FaultRequest struct {
	Kind     string  `json:"kind"`
	AtMS     int64   `json:"at_ms,omitempty"`
	UntilMS  int64   `json:"until_ms,omitempty"`
	IONode   int     `json:"ionode,omitempty"`
	Node     int     `json:"node,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	PeriodMS int64   `json:"period_ms,omitempty"`
	Count    int     `json:"count,omitempty"`
}

// TiersRequest selects the what-if cache hierarchy.
type TiersRequest struct {
	IONode *IONodeTierRequest `json:"ionode,omitempty"`
	Client *ClientTierRequest `json:"client,omitempty"`
	Log    *LogTierRequest    `json:"log,omitempty"`
}

// IONodeTierRequest configures the I/O-node buffer cache tier.
type IONodeTierRequest struct {
	WriteBehind     bool  `json:"write_behind,omitempty"`
	ReadAhead       int   `json:"read_ahead,omitempty"`
	CapacityBytes   int64 `json:"capacity_bytes,omitempty"`
	FlushDeadlineMS int64 `json:"flush_deadline_ms,omitempty"`
}

// ClientTierRequest configures the lease-coherent client cache tier.
type ClientTierRequest struct {
	CapacityBytes int64 `json:"capacity_bytes,omitempty"`
	LeaseTTLMS    int64 `json:"lease_ttl_ms,omitempty"`
}

// LogTierRequest configures the per-compute-node log-structured write
// buffer. `{}` selects the documented defaults (8 MB capacity, batch 8,
// 50 ms drain deadline).
type LogTierRequest struct {
	CapacityBytes   int64 `json:"capacity_bytes,omitempty"`
	DrainBatch      int   `json:"drain_batch,omitempty"`
	DrainDeadlineMS int64 `json:"drain_deadline_ms,omitempty"`
}

// SimulateResponse is the JSON summary of one run.
type SimulateResponse struct {
	Hash    string `json:"hash"`
	Cached  bool   `json:"cached"`
	App     string `json:"app"`
	Dataset string `json:"dataset,omitempty"`
	Version string `json:"version"`
	Nodes   int    `json:"nodes"`

	ExecSeconds   float64 `json:"exec_seconds"`
	IOTimeSeconds float64 `json:"io_time_seconds"`
	IOPercent     float64 `json:"io_percent"`
	Events        int     `json:"events"`
	Digest        string  `json:"digest"` // FNV-1a trace digest, %#016x

	Shares  []ShareRow `json:"io_time_by_op"`
	Phases  []PhaseRow `json:"phases"`
	Balance Balance    `json:"ionode_balance"`

	Cache   *cache.Stats       `json:"cache,omitempty"`   // I/O-node tier totals
	Client  *cache.ClientStats `json:"client,omitempty"`  // client tier totals
	Log     *cache.LogStats    `json:"log,omitempty"`     // log tier totals
	Samples []SampleRow        `json:"samples,omitempty"` // utilization samples
}

// ShareRow is one operation's share of aggregate I/O time (Tables 2/5).
type ShareRow struct {
	Op           string  `json:"op"`
	Percent      float64 `json:"percent"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
}

// PhaseRow is one application phase's I/O activity.
type PhaseRow struct {
	Name          string  `json:"name"`
	StartSeconds  float64 `json:"start_seconds"`
	EndSeconds    float64 `json:"end_seconds"`
	Ops           int     `json:"ops"`
	IOTimeSeconds float64 `json:"io_time_seconds"`
	BytesRead     int64   `json:"bytes_read"`
	BytesWritten  int64   `json:"bytes_written"`
}

// Balance summarizes load balance across I/O nodes.
type Balance struct {
	IONodes     int     `json:"ionodes"`
	TotalBytes  int64   `json:"total_bytes"`
	MaxOverMean float64 `json:"hot_spot_factor"`
	BytesCV     float64 `json:"bytes_cv"`
	Idle        int     `json:"idle"`
}

// SampleRow is one utilization snapshot (SampleMS > 0).
type SampleRow struct {
	TSeconds   float64 `json:"t_seconds"`
	MetaQueue  int     `json:"meta_queue"`
	TokenQueue int     `json:"token_queue"`
	MaxIOQueue int     `json:"max_io_queue"`
}

// AdviseResponse is the body of POST /v1/advise.
type AdviseResponse struct {
	Hash    string `json:"hash"`
	Cached  bool   `json:"cached"`
	App     string `json:"app"`
	Version string `json:"version"`
	Advice  string `json:"advice"` // rendered advisor report
}

// apiError is the JSON error envelope: every error response, on every
// endpoint, is {"error": {"code": ..., "message": ..., "field": ...}}.
type apiError struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the structured error payload.
type ErrorBody struct {
	// Code is a stable machine-readable identifier; the full catalog is
	// the ErrCode constants below.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Field names the request field a validation failure is about
	// (empty on errors that are not about one field).
	Field string `json:"field,omitempty"`
}

// The error-code catalog. Codes are part of the API contract: clients
// dispatch on them, so they never change meaning.
const (
	ErrCodeBadJSON        = "bad_json"        // 400: body is not valid JSON for the endpoint
	ErrCodeInvalidRequest = "invalid_request" // 400: a field failed validation
	ErrCodeQueueFull      = "queue_full"      // 429: admission queue full, retry later
	ErrCodeTimeout        = "timeout"         // 504: run exceeded the server deadline
	ErrCodeCancelled      = "cancelled"       // 503: run cancelled (shutdown or client gone)
	ErrCodeRunFailed      = "run_failed"      // 422: the engine rejected the configuration or panicked
	ErrCodeNotFound       = "not_found"       // 404: no such cached result
)

func writeError(w http.ResponseWriter, status int, code, field, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Field:   field,
	}})
}

// fieldError is a validation failure tied to the request field it names;
// handlers surface the field in the error envelope.
type fieldError struct {
	field string
	msg   string
}

func (e *fieldError) Error() string { return e.msg }

func fieldErrorf(field, format string, args ...any) error {
	return &fieldError{field: field, msg: fmt.Sprintf(format, args...)}
}

// writeValidationError renders a validate() failure, carrying the field
// name through when the error has one.
func writeValidationError(w http.ResponseWriter, err error) {
	var fe *fieldError
	if errors.As(err, &fe) {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fe.field, "%s", fe.msg)
		return
	}
	writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "", "%v", err)
}

// runFunc executes one validated request; the default builds the real
// application run, tests substitute stubs.
type runFunc func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error)

func defaultRun(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
	switch req.App {
	case "escat":
		ds, _ := escat.LookupDataset(req.Dataset)
		v, _ := escat.LookupVersion(req.Version, req.Dataset)
		return escat.RunOnContext(ctx, cfg, ds, v)
	case "prism":
		v, _ := prism.LookupVersion(req.Version)
		return prism.RunOnContext(ctx, cfg, prism.TestProblem(), v)
	}
	return nil, fmt.Errorf("server: unknown app %q", req.App)
}

// validate normalizes the request and rejects anything defaultRun could
// not execute, so handler-side validation and run-side dispatch agree.
// Every spelling of one run normalizes to the same App, Dataset and
// Version, so it hashes to one content address.
func (r *SimulateRequest) validate() error {
	r.App = strings.ToLower(r.App)
	r.Dataset = strings.ToLower(r.Dataset)
	if r.Seed == 0 {
		r.Seed = 1
	}
	switch r.App {
	case "escat":
		switch r.Dataset {
		case "":
			r.Dataset = "ethylene"
		case "carbon-monoxide":
			r.Dataset = "co"
		}
		if _, ok := escat.LookupDataset(r.Dataset); !ok {
			return fieldErrorf("dataset", "unknown escat dataset %q (want ethylene or co)", r.Dataset)
		}
		v, ok := escat.LookupVersion(r.Version, r.Dataset)
		if !ok {
			return fieldErrorf("version", "unknown escat version %q (want A, A2, B1, B2, B3, B, or C)", r.Version)
		}
		r.Version = v.ID
	case "prism":
		if r.Dataset != "" {
			return fieldErrorf("dataset", "prism takes no dataset (got %q)", r.Dataset)
		}
		v, ok := prism.LookupVersion(r.Version)
		if !ok {
			return fieldErrorf("version", "unknown prism version %q (want A, B, or C)", r.Version)
		}
		r.Version = v.ID
	case "":
		return fieldErrorf("app", "missing app (want escat or prism)")
	default:
		return fieldErrorf("app", "unknown app %q (want escat or prism)", r.App)
	}
	if r.Shards < 0 {
		return fieldErrorf("shards", "shards must be non-negative, got %d", r.Shards)
	}
	if r.IONodes < 0 {
		return fieldErrorf("ionodes", "ionodes must be non-negative, got %d", r.IONodes)
	}
	if r.StripeUnit < 0 {
		return fieldErrorf("stripe_unit", "stripe_unit must be non-negative, got %d", r.StripeUnit)
	}
	if r.SampleMS < 0 {
		return fieldErrorf("sample_ms", "sample_ms must be non-negative, got %d", r.SampleMS)
	}
	ionodes := r.IONodes
	if ionodes == 0 {
		ionodes = 16 // the paper machine core.Config defaults to
	}
	if err := r.faultsPlan().Validate(ionodes); err != nil {
		return fieldErrorf("faults", "%v", err)
	}
	// Resolve the tiers exactly as pfs.New will, so a malformed block is
	// rejected before it is hashed, admitted or run.
	stripe := r.StripeUnit
	if stripe == 0 {
		stripe = pfs.DefaultStripeUnit
	}
	if _, err := r.config().Tiers.WithDefaults(stripe, disk.DefaultParams()); err != nil {
		return fieldErrorf("tiers", "%v", err)
	}
	return nil
}

// faultsPlan maps the request's faults block onto the engine's plan.
func (r *SimulateRequest) faultsPlan() faults.Plan {
	if len(r.Faults) == 0 {
		return faults.Plan{}
	}
	fs := make([]faults.Fault, len(r.Faults))
	for i, f := range r.Faults {
		fs[i] = faults.Fault{
			Kind:   faults.Kind(f.Kind),
			At:     time.Duration(f.AtMS) * time.Millisecond,
			Until:  time.Duration(f.UntilMS) * time.Millisecond,
			IONode: f.IONode,
			Node:   f.Node,
			Factor: f.Factor,
			Period: time.Duration(f.PeriodMS) * time.Millisecond,
			Count:  f.Count,
		}
	}
	return faults.Plan{Faults: fs}
}

// config maps the validated request onto a core.Config.
func (r *SimulateRequest) config() core.Config {
	cfg := core.Config{
		Seed:           r.Seed,
		IONodes:        r.IONodes,
		StripeUnit:     r.StripeUnit,
		SampleInterval: time.Duration(r.SampleMS) * time.Millisecond,
		Faults:         r.faultsPlan(),
	}
	if t := r.Tiers; t != nil {
		if io := t.IONode; io != nil {
			cfg.Tiers.IONode = &cache.Config{
				WriteBehind:   io.WriteBehind,
				ReadAhead:     io.ReadAhead,
				CapacityBytes: io.CapacityBytes,
				FlushDeadline: time.Duration(io.FlushDeadlineMS) * time.Millisecond,
			}
		}
		if cl := t.Client; cl != nil {
			cfg.Tiers.Client = &cache.ClientConfig{
				CapacityBytes: cl.CapacityBytes,
				LeaseTTL:      time.Duration(cl.LeaseTTLMS) * time.Millisecond,
			}
		}
		if lg := t.Log; lg != nil {
			cfg.Tiers.Log = &cache.LogConfig{
				CapacityBytes: lg.CapacityBytes,
				DrainBatch:    lg.DrainBatch,
				DrainDeadline: time.Duration(lg.DrainDeadlineMS) * time.Millisecond,
			}
		}
	}
	return cfg
}

// identity is the run-identity string hashed into the content address.
func (r *SimulateRequest) identity() string {
	if r.Dataset != "" {
		return r.App + "/" + r.Dataset + "/" + r.Version
	}
	return r.App + "/" + r.Version
}

// flight is one in-flight run that identical concurrent requests join.
// refs counts attached waiters; when the last one disconnects the run
// is cancelled — nobody is listening for the answer.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int

	body      []byte // response body served to waiters (cached=false)
	cacheBody []byte // variant stored in the result cache (cached=true)
	err       error
}

// joinFlight returns the flight for key, creating it (and starting
// produce on a daemon-owned context) if none is running. The boolean
// reports whether the caller is joining an existing flight.
func (s *Server) joinFlight(key string, produce func(ctx context.Context) ([]byte, []byte, error)) (*flight, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if f, ok := s.flights[key]; ok {
		f.refs++
		return f, true
	}
	// The run context is daemon-owned, not the leader's request
	// context: late joiners must survive the leader disconnecting.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	f := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	s.flights[key] = f
	go func() {
		defer cancel()
		f.body, f.cacheBody, f.err = produce(ctx)
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()
	return f, false
}

// leaveFlight detaches one waiter; the last one out cancels the run.
func (s *Server) leaveFlight(f *flight) {
	s.flightMu.Lock()
	f.refs--
	if f.refs == 0 {
		f.cancel()
	}
	s.flightMu.Unlock()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadJSON, "", "bad request body: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeValidationError(w, err)
		return
	}
	cfg := req.config()
	key := experiments.ConfigKey(cfg, req.identity())

	if req.SDDF {
		s.streamSDDF(w, r, &req, cfg)
		return
	}
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	client := clientID(r)
	f, joined := s.joinFlight(key, func(ctx context.Context) ([]byte, []byte, error) {
		res, err := s.admitAndRunAs(ctx, client, KindInteractive, &req, cfg)
		if err != nil {
			return nil, nil, err
		}
		resp := buildSimulateResponse(&req, key, res)
		res.Trace.Release() // response built; recycle the event buffer
		return marshalPair(resp, &resp.Cached)
	})
	if joined {
		s.coalesced.Inc()
	}
	s.finishFlight(w, r, key, f)
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadJSON, "", "bad request body: %v", err)
		return
	}
	if req.SDDF {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "sddf",
			"sddf streaming is a /v1/simulate option")
		return
	}
	if err := req.validate(); err != nil {
		writeValidationError(w, err)
		return
	}
	cfg := req.config()
	key := "advise/" + experiments.ConfigKey(cfg, req.identity())

	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	client := clientID(r)
	f, joined := s.joinFlight(key, func(ctx context.Context) ([]byte, []byte, error) {
		res, err := s.admitAndRunAs(ctx, client, KindInteractive, &req, cfg)
		if err != nil {
			return nil, nil, err
		}
		var advice bytes.Buffer
		err = policy.WriteAdvice(&advice, policy.Classify(res.Trace), policy.Options{StripeUnit: cfg.StripeUnit},
			policy.CacheOptions{IONodes: len(res.IONodes), Faults: cfg.Faults})
		res.Trace.Release() // advice rendered; recycle the event buffer
		if err != nil {
			return nil, nil, err
		}
		resp := &AdviseResponse{
			Hash:    key,
			App:     req.App,
			Version: res.Version,
			Advice:  advice.String(),
		}
		return marshalPair(resp, &resp.Cached)
	})
	if joined {
		s.coalesced.Inc()
	}
	s.finishFlight(w, r, key, f)
}

// finishFlight waits for a flight (or the client's departure) and
// renders its outcome.
func (s *Server) finishFlight(w http.ResponseWriter, r *http.Request, key string, f *flight) {
	select {
	case <-f.done:
	case <-r.Context().Done():
		s.leaveFlight(f)
		return // client gone; nothing to write
	}
	s.leaveFlight(f)
	if f.err != nil {
		s.writeRunError(w, f.err)
		return
	}
	if f.cacheBody != nil {
		s.cache.Put(key, f.cacheBody)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(f.body)
}

// writeRunError maps a failed run onto an HTTP status.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter(s.cfg.Timeout))
		writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, ErrCodeTimeout, "",
			"simulation exceeded the %s run deadline", s.cfg.Timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "",
			"simulation cancelled: %v", err)
	default:
		writeError(w, http.StatusUnprocessableEntity, ErrCodeRunFailed, "",
			"simulation failed: %v", err)
	}
}

// retryAfter suggests a retry delay proportional to the run deadline,
// clamped to [1s, 60s].
func retryAfter(timeout time.Duration) string {
	d := timeout / 10
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return fmt.Sprintf("%d", int(d.Seconds()))
}

// admitAndRunAs passes admission control under a client identity and
// request kind (for fair-share scheduling) and executes the run. The
// request's shards field is the run's admission weight.
func (s *Server) admitAndRunAs(ctx context.Context, client, kind string, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
	release, err := s.adm.AcquireAs(ctx, client, kind, s.adm.Cost(req.Shards))
	if err != nil {
		return nil, err
	}
	defer release()
	if !cfg.Faults.Empty() {
		s.faultRuns.Inc()
	}
	start := time.Now()
	res, err := s.runSim(ctx, req, cfg)
	s.runSeconds.Observe(time.Since(start).Seconds())
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		s.runPanics.Inc()
	}
	return res, err
}

// streamSDDF runs the simulation and streams the SDDF trace as text.
// It honors admission control but bypasses the result cache.
func (s *Server) streamSDDF(w http.ResponseWriter, r *http.Request, req *SimulateRequest, cfg core.Config) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	res, err := s.admitAndRunAs(ctx, clientID(r), KindInteractive, req, cfg)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	err = pablo.WriteTrace(w, res.Trace)
	res.Trace.Release() // trace streamed; recycle the event buffer
	if err != nil {
		// Headers are gone; the broken body is the best signal left.
		return
	}
}

// marshalPair renders a response twice — once as returned to live
// waiters (cached=false) and once as stored in the result cache
// (cached=true) — by flipping the response's Cached field in place.
func marshalPair(resp any, cached *bool) ([]byte, []byte, error) {
	*cached = false
	live, err := json.Marshal(resp)
	if err != nil {
		return nil, nil, err
	}
	*cached = true
	cacheBody, err := json.Marshal(resp)
	if err != nil {
		return nil, nil, err
	}
	return live, cacheBody, nil
}

func buildSimulateResponse(req *SimulateRequest, key string, res *core.Result) *SimulateResponse {
	resp := &SimulateResponse{
		Hash:          key,
		App:           req.App,
		Dataset:       req.Dataset,
		Version:       res.Version,
		Nodes:         res.Nodes,
		ExecSeconds:   res.Exec.Seconds(),
		IOTimeSeconds: res.IOTime().Seconds(),
		IOPercent:     res.IOPercent(),
		Events:        res.Trace.Len(),
		Digest:        fmt.Sprintf("%#016x", res.Trace.Digest()),
	}
	for _, sh := range analysis.IOTimeShares(res.Trace) {
		resp.Shares = append(resp.Shares, ShareRow{
			Op:           sh.Op.String(),
			Percent:      sh.Percent,
			Count:        sh.Count,
			TotalSeconds: sh.Total.Seconds(),
		})
	}
	for _, ph := range res.Phases {
		agg := analysis.PhaseStats(res.Trace, ph)
		resp.Phases = append(resp.Phases, PhaseRow{
			Name:          ph.Name,
			StartSeconds:  ph.Start.Seconds(),
			EndSeconds:    ph.End.Seconds(),
			Ops:           agg.TotalCount(),
			IOTimeSeconds: agg.TotalDuration().Seconds(),
			BytesRead:     agg.BytesRead,
			BytesWritten:  agg.BytesWritten,
		})
	}
	b := analysis.IONodeBalance(res.IONodes)
	resp.Balance = Balance{
		IONodes:     b.IONodes,
		TotalBytes:  b.TotalBytes,
		MaxOverMean: b.MaxOverMean,
		BytesCV:     b.BytesCV,
		Idle:        b.Idle,
	}
	if res.Cache != nil {
		t := res.CacheTotals()
		resp.Cache = &t
	}
	if res.Client.Nodes > 0 {
		cl := res.Client
		resp.Client = &cl
	}
	if res.Log.Nodes > 0 {
		lg := res.Log
		resp.Log = &lg
	}
	for _, smp := range res.Samples {
		maxQ := 0
		for _, q := range smp.IONodeQueue {
			if q > maxQ {
				maxQ = q
			}
		}
		resp.Samples = append(resp.Samples, SampleRow{
			TSeconds:   smp.T.Seconds(),
			MetaQueue:  smp.MetaQueue,
			TokenQueue: smp.TokenQueue,
			MaxIOQueue: maxQ,
		})
	}
	return resp
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	rows := []row{}
	for _, e := range experiments.All() {
		rows = append(rows, row{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	if !hashRe.MatchString(key) {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "hash",
			"malformed result hash %q (want 16 hex digits, optionally prefixed like advise/)", key)
		return
	}
	body, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "", "no cached result for %s", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
