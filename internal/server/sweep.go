package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/experiments"
)

// SweepRequest is the body of POST /v1/sweep: a config grid declared as
// one list per axis. The planner expands the Cartesian product
// (version × seed × ionodes × stripe × tier × fault plan), dedupes the
// points by content address against the result cache and every
// in-flight run, and executes the survivors through the shared
// admission scheduler. Results stream back as NDJSON in completion
// order.
type SweepRequest struct {
	App     string `json:"app"`               // "escat" or "prism"
	Dataset string `json:"dataset,omitempty"` // escat only

	Versions    []string `json:"versions"`               // at least one
	Seeds       []int64  `json:"seeds,omitempty"`        // default [1]
	IONodes     []int    `json:"ionodes,omitempty"`      // default [paper machine]
	StripeUnits []int64  `json:"stripe_units,omitempty"` // default [paper machine]

	// Tiers is the cache-hierarchy ladder: one entry per rung, null for
	// the uncached baseline. Default is a single-null ladder.
	Tiers []*TiersRequest `json:"tiers,omitempty"`

	// Faults is the fault-plan ladder: one plan per rung, empty (or
	// null) for the healthy machine. Default is a single healthy rung.
	Faults [][]FaultRequest `json:"faults,omitempty"`

	// Per-point scalars shared by every grid point. Shards is accepted
	// and ignored: every point holds one admission slot.
	Shards   int   `json:"shards,omitempty"`
	SampleMS int64 `json:"sample_ms,omitempty"`
}

// sweepPlan is the first NDJSON line: the shape of the expanded grid.
type sweepPlan struct {
	Plan    bool `json:"plan"`
	Points  int  `json:"points"`  // expanded grid size
	Unique  int  `json:"unique"`  // distinct content addresses
	Invalid int  `json:"invalid"` // points rejected by validation
	Slots   int  `json:"slots"`   // admission pool size
}

// sweepPointLine is one per-point NDJSON line, emitted in completion
// order; Point is the flat grid index for client-side reordering.
type sweepPointLine struct {
	Point      int    `json:"point"`
	App        string `json:"app"`
	Dataset    string `json:"dataset,omitempty"`
	Version    string `json:"version"`
	Seed       int64  `json:"seed"`
	IONodes    int    `json:"ionodes,omitempty"`
	StripeUnit int64  `json:"stripe_unit,omitempty"`
	Tier       int    `json:"tier"`  // index into the request's tier ladder
	Fault      int    `json:"fault"` // index into the request's fault ladder

	Hash   string `json:"hash,omitempty"`
	Status string `json:"status"`          // "ok", "error", or "invalid"
	Dedup  string `json:"dedup,omitempty"` // "cache", "inflight", or "request"
	Error  string `json:"error,omitempty"`

	Result json.RawMessage `json:"result,omitempty"` // SimulateResponse
}

// sweepSummary is the final NDJSON line.
type sweepSummary struct {
	Done          bool    `json:"done"`
	OK            int     `json:"ok"`
	Errors        int     `json:"errors"`
	Invalid       int     `json:"invalid"`
	DedupCache    int     `json:"dedup_cache"`    // served from the result cache
	DedupInflight int     `json:"dedup_inflight"` // joined someone's running flight
	DedupRequest  int     `json:"dedup_request"`  // duplicate point within this grid
	WallSeconds   float64 `json:"wall_seconds"`
}

// sweepPoint is one planned grid point.
type sweepPoint struct {
	index int
	req   SimulateRequest
	tier  int
	fault int
	key   string
	err   error // validation failure, when non-nil
}

// expand walks the grid and materialises every point; invalid points
// carry their validation error instead of a key. It rejects a grid of
// more than maxPoints points before materialising any: the axis lengths
// are multiplied one at a time, so the check stops as soon as the
// product passes the cap and never overflows.
func (sr *SweepRequest) expand(maxPoints int) ([]sweepPoint, error) {
	if len(sr.Versions) == 0 {
		return nil, fieldErrorf("versions", "sweep needs at least one version")
	}
	seeds := sr.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0} // validate() resolves 0 to the default seed
	}
	ionodes := sr.IONodes
	if len(ionodes) == 0 {
		ionodes = []int{0}
	}
	stripes := sr.StripeUnits
	if len(stripes) == 0 {
		stripes = []int64{0}
	}
	tiers := sr.Tiers
	if len(tiers) == 0 {
		tiers = []*TiersRequest{nil}
	}
	plans := sr.Faults
	if len(plans) == 0 {
		plans = [][]FaultRequest{nil}
	}
	size := 1
	for _, n := range []int{len(sr.Versions), len(seeds), len(ionodes), len(stripes), len(tiers), len(plans)} {
		size *= n
		if size > maxPoints {
			return nil, fmt.Errorf("sweep expands to at least %d points, over the %d-point cap", size, maxPoints)
		}
	}
	// Last axis fastest: the point index is the flat grid index.
	points := make([]sweepPoint, 0, size)
	for _, version := range sr.Versions {
		for _, seed := range seeds {
			for _, ion := range ionodes {
				for _, su := range stripes {
					for ti, tier := range tiers {
						for fi, plan := range plans {
							p := sweepPoint{
								index: len(points),
								tier:  ti,
								fault: fi,
								req: SimulateRequest{
									App:        sr.App,
									Dataset:    sr.Dataset,
									Version:    version,
									Seed:       seed,
									IONodes:    ion,
									StripeUnit: su,
									Shards:     sr.Shards,
									SampleMS:   sr.SampleMS,
									Tiers:      tier,
									Faults:     plan,
								},
							}
							if err := p.req.validate(); err != nil {
								p.err = err
							} else {
								p.key = experiments.ConfigKey(p.req.config(), p.req.identity())
							}
							points = append(points, p)
						}
					}
				}
			}
		}
	}
	return points, nil
}

// line renders the point's static fields into an NDJSON line skeleton.
func (p *sweepPoint) line() sweepPointLine {
	return sweepPointLine{
		Point:      p.index,
		App:        p.req.App,
		Dataset:    p.req.Dataset,
		Version:    p.req.Version,
		Seed:       p.req.Seed,
		IONodes:    p.req.IONodes,
		StripeUnit: p.req.StripeUnit,
		Tier:       p.tier,
		Fault:      p.fault,
		Hash:       p.key,
	}
}

// ndjsonWriter serialises concurrent point completions onto one
// streaming response body, flushing after every line so clients overlap
// analysis with execution.
type ndjsonWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, fl: fl}
}

func (nw *ndjsonWriter) writeLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.w.Write(append(b, '\n'))
	if nw.fl != nil {
		nw.fl.Flush()
	}
}

// sweepTally accumulates the summary counts across point workers.
type sweepTally struct {
	mu      sync.Mutex
	summary sweepSummary
}

func (t *sweepTally) record(status, dedup string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch status {
	case "ok":
		t.summary.OK++
	case "error":
		t.summary.Errors++
	case "invalid":
		t.summary.Invalid++
	}
	switch dedup {
	case "cache":
		t.summary.DedupCache++
	case "inflight":
		t.summary.DedupInflight++
	case "request":
		t.summary.DedupRequest++
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	if !decodeBody(w, r, &sr) {
		return
	}
	points, err := sr.expand(s.cfg.MaxSweepPoints)
	if err != nil {
		writeValidationError(w, err)
		return
	}
	s.sweepPoints.Add(uint64(len(points)))

	// In-request dedup: the first point with each content address is the
	// leader and executes; later duplicates reuse its line.
	groups := make(map[string][]*sweepPoint)
	var leaders []*sweepPoint
	invalid := 0
	for i := range points {
		p := &points[i]
		if p.err != nil {
			invalid++
			continue
		}
		if len(groups[p.key]) == 0 {
			leaders = append(leaders, p)
		}
		groups[p.key] = append(groups[p.key], p)
	}

	start := time.Now()
	nw := newNDJSONWriter(w)
	tally := &sweepTally{}
	nw.writeLine(sweepPlan{
		Plan:    true,
		Points:  len(points),
		Unique:  len(leaders),
		Invalid: invalid,
		Slots:   s.adm.Slots(),
	})
	for i := range points {
		p := &points[i]
		if p.err == nil {
			continue
		}
		line := p.line()
		line.Status = "invalid"
		line.Error = p.err.Error()
		tally.record(line.Status, "")
		nw.writeLine(line)
	}

	// Execute leaders on about twice the slot pool's workers: enough to
	// keep the admission queue fed (so slots never idle between
	// points), few enough that a big grid does not park hundreds of
	// goroutines in the scheduler at once.
	ctx := r.Context()
	client := clientID(r)
	core.Each(len(leaders), 2*s.adm.Slots(), func(i int) error {
		if ctx.Err() == nil { // else the client is gone; nobody reads further lines
			s.runSweepPoint(ctx, client, nw, tally, leaders[i], groups[leaders[i].key])
		}
		return nil
	})
	if ctx.Err() != nil {
		return
	}
	tally.mu.Lock()
	summary := tally.summary
	tally.mu.Unlock()
	summary.Done = true
	summary.WallSeconds = time.Since(start).Seconds()
	nw.writeLine(summary)
}

// runSweepPoint resolves one unique grid point and emits a line for the
// leader plus one per in-request duplicate.
func (s *Server) runSweepPoint(ctx context.Context, client string, nw *ndjsonWriter, tally *sweepTally, leader *sweepPoint, group []*sweepPoint) {
	body, dedup, err := s.resolve(ctx, leader.key, client, KindSweep, &leader.req, renderSimulate)
	if err != nil && ctx.Err() != nil {
		return // client gone; nobody reads further lines
	}
	for _, p := range group {
		line := p.line()
		line.Result = body
		if err != nil {
			line.Status = "error"
			line.Error = err.Error()
		} else {
			line.Status = "ok"
		}
		if p != leader {
			line.Dedup = "request"
			s.sweepDedup.With("request").Inc()
		} else {
			line.Dedup = dedup
			if dedup != "" {
				s.sweepDedup.With(dedup).Inc()
			}
		}
		tally.record(line.Status, line.Dedup)
		nw.writeLine(line)
	}
}

// clientID identifies the requester for per-client fair-share
// scheduling: the X-Client header when set, else the peer address.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
