package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paragonio/internal/core"
)

// parseSweepBody splits an NDJSON sweep response into its plan line,
// point lines, and summary line.
func parseSweepBody(t *testing.T, body []byte) (sweepPlan, []sweepPointLine, sweepSummary) {
	t.Helper()
	var (
		plan                sweepPlan
		points              []sweepPointLine
		summary             sweepSummary
		sawPlan, sawSummary bool
	)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Plan bool `json:"plan"`
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		switch {
		case probe.Plan:
			if sawPlan || len(points) > 0 {
				t.Fatal("plan line not first")
			}
			sawPlan = true
			if err := json.Unmarshal(line, &plan); err != nil {
				t.Fatal(err)
			}
		case probe.Done:
			sawSummary = true
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
		default:
			if sawSummary {
				t.Fatal("point line after summary")
			}
			var p sweepPointLine
			if err := json.Unmarshal(line, &p); err != nil {
				t.Fatal(err)
			}
			points = append(points, p)
		}
	}
	if !sawPlan || !sawSummary {
		t.Fatalf("sweep framing incomplete: plan=%v summary=%v\n%s", sawPlan, sawSummary, body)
	}
	return plan, points, summary
}

func TestSweepNDJSONGridAndDedup(t *testing.T) {
	var runCount atomic.Int32
	s := newTestServer(t, Config{}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		runCount.Add(1)
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 3 versions × 2 seeds × 2 tier rungs = 12 points, all distinct.
	const grid = `{"app":"prism","versions":["A","B","C"],"seeds":[1,2],
		"tiers":[null,{"ionode":{"write_behind":true,"capacity_bytes":1048576}}]}`
	resp, body := postJSON(t, ts, "/v1/sweep", grid)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	plan, points, summary := parseSweepBody(t, body)
	if plan.Points != 12 || plan.Unique != 12 || plan.Invalid != 0 {
		t.Fatalf("plan = %+v, want 12/12/0", plan)
	}
	if len(points) != 12 || summary.OK != 12 || summary.Errors != 0 {
		t.Fatalf("%d point lines, summary %+v", len(points), summary)
	}
	seen := map[int]bool{}
	for _, p := range points {
		if p.Status != "ok" || p.Dedup != "" || len(p.Result) == 0 {
			t.Errorf("point %d: status=%q dedup=%q result=%d bytes", p.Point, p.Status, p.Dedup, len(p.Result))
		}
		var sr SimulateResponse
		if err := json.Unmarshal(p.Result, &sr); err != nil {
			t.Fatalf("point %d result: %v", p.Point, err)
		}
		if sr.Hash != p.Hash || sr.Cached {
			t.Errorf("point %d result hash %q (line %q) cached=%v", p.Point, sr.Hash, p.Hash, sr.Cached)
		}
		seen[p.Point] = true
	}
	if len(seen) != 12 {
		t.Errorf("point indices not unique: %v", seen)
	}
	if n := runCount.Load(); n != 12 {
		t.Errorf("engine ran %d times, want 12", n)
	}

	// The identical grid replays entirely from the result cache.
	_, body2 := postJSON(t, ts, "/v1/sweep", grid)
	_, points2, summary2 := parseSweepBody(t, body2)
	if summary2.OK != 12 || summary2.DedupCache != 12 {
		t.Fatalf("replay summary %+v, want 12 cache-deduped", summary2)
	}
	for _, p := range points2 {
		if p.Dedup != "cache" {
			t.Errorf("replay point %d dedup = %q", p.Point, p.Dedup)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(p.Result, &sr); err != nil || !sr.Cached {
			t.Errorf("replay point %d not served cached (%v)", p.Point, err)
		}
	}
	if n := runCount.Load(); n != 12 {
		t.Errorf("replay re-ran the engine: %d runs", n)
	}
	if v := s.sweepDedup.With("cache").Value(); v != 12 {
		t.Errorf("iosimd_sweep_dedup_total{source=cache} = %d, want 12", v)
	}
	if v := s.sweepPoints.Value(); v != 24 {
		t.Errorf("iosimd_sweep_points_total = %d, want 24", v)
	}
}

// TestSweepFaultAxis: the fault ladder is a grid axis — each rung gets
// its own content address and its index comes back on the point line.
func TestSweepFaultAxis(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const grid = `{"app":"prism","versions":["C"],
		"faults":[null,[{"kind":"disk-fail","at_ms":1000,"ionode":0}],[{"kind":"straggler","at_ms":1000,"ionode":1,"factor":4}]]}`
	resp, body := postJSON(t, ts, "/v1/sweep", grid)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	plan, points, summary := parseSweepBody(t, body)
	if plan.Points != 3 || plan.Unique != 3 || summary.OK != 3 {
		t.Fatalf("plan %+v summary %+v, want 3 distinct ok points", plan, summary)
	}
	hashes := map[string]bool{}
	faultIdx := map[int]bool{}
	for _, p := range points {
		if p.Status != "ok" {
			t.Errorf("point %d: %q (%s)", p.Point, p.Status, p.Error)
		}
		hashes[p.Hash] = true
		faultIdx[p.Fault] = true
	}
	if len(hashes) != 3 {
		t.Errorf("fault rungs share content addresses: %v", hashes)
	}
	if !faultIdx[0] || !faultIdx[1] || !faultIdx[2] {
		t.Errorf("fault indices = %v, want {0,1,2}", faultIdx)
	}
	if v := s.faultRuns.Value(); v != 2 {
		t.Errorf("iosimd_fault_runs_total = %d, want 2 (healthy rung excluded)", v)
	}

	// A malformed rung is an invalid point, not a request failure.
	const badRung = `{"app":"prism","versions":["C"],"faults":[[{"kind":"disk-melt"}]]}`
	resp, body = postJSON(t, ts, "/v1/sweep", badRung)
	if resp.StatusCode != 200 {
		t.Fatalf("bad-rung status %d: %s", resp.StatusCode, body)
	}
	_, points, summary = parseSweepBody(t, body)
	if summary.Invalid != 1 || len(points) != 1 || points[0].Status != "invalid" {
		t.Errorf("bad rung: summary %+v points %+v", summary, points)
	}
	if !strings.Contains(points[0].Error, "unknown kind") {
		t.Errorf("bad rung error %q", points[0].Error)
	}
}

func TestSweepInRequestDedupAndInvalid(t *testing.T) {
	var runCount atomic.Int32
	s := newTestServer(t, Config{}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		runCount.Add(1)
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Duplicate seeds collapse to one engine run per unique point, and
	// the bogus version yields invalid lines, not a failed sweep.
	resp, body := postJSON(t, ts, "/v1/sweep",
		`{"app":"prism","versions":["C","Z"],"seeds":[7,7]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	plan, points, summary := parseSweepBody(t, body)
	if plan.Points != 4 || plan.Unique != 1 || plan.Invalid != 2 {
		t.Fatalf("plan = %+v, want points=4 unique=1 invalid=2", plan)
	}
	if summary.OK != 2 || summary.Invalid != 2 || summary.DedupRequest != 1 {
		t.Fatalf("summary = %+v", summary)
	}
	var dupSeen bool
	for _, p := range points {
		switch {
		case p.Version == "Z":
			if p.Status != "invalid" || p.Error == "" {
				t.Errorf("invalid point %d: %+v", p.Point, p)
			}
		case p.Dedup == "request":
			dupSeen = true
			if p.Status != "ok" || len(p.Result) == 0 {
				t.Errorf("deduped point %d lacks the shared result: %+v", p.Point, p)
			}
		}
	}
	if !dupSeen {
		t.Error("no in-request dedup line emitted")
	}
	if n := runCount.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}

	// A tiers rung the engine would refuse is planned invalid up front;
	// only the good rung runs.
	runCount.Store(0)
	resp, body = postJSON(t, ts, "/v1/sweep",
		`{"app":"prism","versions":["C"],"seeds":[8],"tiers":[null,{"ionode":{"read_ahead":-1}}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("bad-tiers sweep: status %d: %s", resp.StatusCode, body)
	}
	plan, points, summary = parseSweepBody(t, body)
	if plan.Points != 2 || plan.Unique != 1 || plan.Invalid != 1 {
		t.Fatalf("bad-tiers plan = %+v, want points=2 unique=1 invalid=1", plan)
	}
	if summary.OK != 1 || summary.Invalid != 1 || summary.Errors != 0 {
		t.Fatalf("bad-tiers summary = %+v, want ok=1 invalid=1 errors=0", summary)
	}
	for _, p := range points {
		if p.Tier == 1 && (p.Status != "invalid" || !strings.Contains(p.Error, "ReadAhead")) {
			t.Errorf("bad-tiers point: %+v", p)
		}
	}
	if n := runCount.Load(); n != 1 {
		t.Errorf("bad-tiers sweep: engine ran %d times, want 1", n)
	}

	// A grid over the configured cap is rejected up front.
	sCap := newTestServer(t, Config{MaxSweepPoints: 3}, stubRun)
	tsCap := httptest.NewServer(sCap.Handler())
	defer tsCap.Close()
	resp, body = postJSON(t, tsCap, "/v1/sweep", `{"app":"prism","versions":["A","B","C"],"seeds":[1,2]}`)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("cap")) {
		t.Errorf("oversized sweep: status %d body %s", resp.StatusCode, body)
	}

	// A sweep with no versions is rejected.
	resp, _ = postJSON(t, ts, "/v1/sweep", `{"app":"prism"}`)
	if resp.StatusCode != 400 {
		t.Errorf("empty sweep: status %d", resp.StatusCode)
	}
}

// TestSweepSimulateCoalesce pins the cross-endpoint dedup contract: a
// /v1/simulate request and an overlapping /v1/sweep point share one
// refcounted engine run.
func TestSweepSimulateCoalesce(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	var runCount atomic.Int32
	// Two slots: the gated simulate run holds one while the sweep's B
	// point occupies the other, so both can be in flight together.
	s := newTestServer(t, Config{Slots: 2}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		runCount.Add(1)
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	simDone := make(chan []byte, 1)
	go func() {
		_, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
		simDone <- out
	}()
	<-started // the simulate request owns the flight now

	sweepDone := make(chan []byte, 1)
	go func() {
		_, out := postJSON(t, ts, "/v1/sweep", `{"app":"prism","versions":["B","C"]}`)
		sweepDone <- out
	}()
	// The sweep's B point starts its own run; its C point must join the
	// simulate flight instead, pushing that flight's refcount to 2.
	<-started
	for i := 0; ; i++ {
		s.flightMu.Lock()
		shared := 0
		for _, f := range s.flights {
			if f.refs == 2 {
				shared++
			}
		}
		n := len(s.flights)
		s.flightMu.Unlock()
		if shared == 1 && n == 2 {
			break
		}
		if i > 5000 {
			t.Fatalf("no shared flight: %d flights, %d shared", n, shared)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	var simResp SimulateResponse
	if err := json.Unmarshal(<-simDone, &simResp); err != nil {
		t.Fatal(err)
	}
	_, points, summary := parseSweepBody(t, <-sweepDone)
	if summary.OK != 2 || summary.DedupInflight != 1 {
		t.Fatalf("sweep summary %+v, want 2 ok / 1 inflight-dedup", summary)
	}
	for _, p := range points {
		if p.Version == "C" && p.Dedup != "inflight" {
			t.Errorf("C point dedup = %q, want inflight", p.Dedup)
		}
	}
	// Two runs total: sweep/B and the shared prism/C — never a third.
	if n := runCount.Load(); n != 2 {
		t.Errorf("engine ran %d times, want 2", n)
	}
	if v := s.coalesced.Value(); v != 1 {
		t.Errorf("iosimd_coalesced_total = %d, want 1", v)
	}
	if v := s.sweepDedup.With("inflight").Value(); v != 1 {
		t.Errorf("iosimd_sweep_dedup_total{source=inflight} = %d, want 1", v)
	}
}

// TestWarmRestart pins the warm-start index: a second daemon booted on
// the same spill directory answers a previously-run config from disk
// without invoking the engine.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{SpillDir: dir}, stubRun)
	ts1 := httptest.NewServer(s1.Handler())
	const body = `{"app":"prism","version":"C"}`
	resp, out := postJSON(t, ts1, "/v1/simulate", body)
	if resp.StatusCode != 200 {
		t.Fatalf("first daemon: status %d: %s", resp.StatusCode, out)
	}
	ts1.Close()

	s2 := newTestServer(t, Config{SpillDir: dir},
		func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
			t.Error("restarted daemon invoked the engine for a spilled config")
			return stubRun(ctx, req, cfg)
		})
	if n := s2.cache.Stats().Spilled; n != 1 {
		t.Fatalf("warm-start index holds %d entries, want 1", n)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, out = postJSON(t, ts2, "/v1/simulate", body)
	if resp.StatusCode != 200 {
		t.Fatalf("restarted daemon: status %d: %s", resp.StatusCode, out)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Error("restarted daemon did not serve from the warm-start index")
	}
	if v := s2.cache.Stats().SpillHits; v != 1 {
		t.Errorf("iosimd_cache_spill_hits_total = %d, want 1", v)
	}

	// A version-tag mismatch purges the artifacts instead of serving
	// hashes that can no longer match.
	s3cache, err := NewResultCache(1<<20, dir, "v2-different")
	if err != nil {
		t.Fatal(err)
	}
	if n := s3cache.Stats().Spilled; n != 0 {
		t.Errorf("stale-version boot kept %d artifacts", n)
	}
}

// TestSweepBeatsSequential is the acceptance benchmark: a 16-point
// ladder submitted as one /v1/sweep must complete in well under 60% of
// the wall-clock of 16 sequential /v1/simulate calls against an
// identical daemon (stub engine with a fixed per-run cost, 4 slots).
func TestSweepBeatsSequential(t *testing.T) {
	const delay = 20 * time.Millisecond
	run := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubRun(ctx, req, cfg)
	}
	seeds := make([]string, 16)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}

	seq := newTestServer(t, Config{Slots: 4}, run)
	tsSeq := httptest.NewServer(seq.Handler())
	defer tsSeq.Close()
	seqStart := time.Now()
	for _, seed := range seeds {
		resp, out := postJSON(t, tsSeq, "/v1/simulate",
			fmt.Sprintf(`{"app":"prism","version":"C","seed":%s}`, seed))
		if resp.StatusCode != 200 {
			t.Fatalf("sequential point: status %d: %s", resp.StatusCode, out)
		}
	}
	seqDur := time.Since(seqStart)

	batch := newTestServer(t, Config{Slots: 4}, run)
	tsBatch := httptest.NewServer(batch.Handler())
	defer tsBatch.Close()
	batchStart := time.Now()
	resp, body := postJSON(t, tsBatch, "/v1/sweep",
		fmt.Sprintf(`{"app":"prism","versions":["C"],"seeds":[%s]}`, strings.Join(seeds, ",")))
	batchDur := time.Since(batchStart)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	_, _, summary := parseSweepBody(t, body)
	if summary.OK != 16 {
		t.Fatalf("sweep summary %+v, want 16 ok", summary)
	}

	// 16 points × 20 ms sequentially vs 4-wide packing: the ideal ratio
	// is 0.25; the 0.6 acceptance bound leaves ample scheduler noise.
	if batchDur > seqDur*6/10 {
		t.Errorf("sweep took %v vs %v sequential (ratio %.2f, want <= 0.60)",
			batchDur, seqDur, float64(batchDur)/float64(seqDur))
	}
	t.Logf("16-point ladder: sequential %v, batched %v (ratio %.2f)",
		seqDur, batchDur, float64(batchDur)/float64(seqDur))
}

// TestSweepPointIndexLastAxisFastest pins the planner's point order: the
// flat index walks the grid with the last axis (faults) fastest, then
// tiers, stripe units, I/O nodes, seeds and versions.
func TestSweepPointIndexLastAxisFastest(t *testing.T) {
	sr := SweepRequest{
		App:         "prism",
		Versions:    []string{"A", "C"},
		Seeds:       []int64{1, 2, 3},
		IONodes:     []int{8, 16},
		StripeUnits: []int64{65536},
		Tiers:       []*TiersRequest{nil, {Log: &LogTierRequest{}}},
		Faults:      [][]FaultRequest{nil, {{Kind: "straggler", IONode: 1, Factor: 2}}},
	}
	points, err := sr.expand(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*3*2*1*2*2 {
		t.Fatalf("%d points, want 48", len(points))
	}
	for i, p := range points {
		fault, tier := i%2, i/2%2
		ion, seed, version := sr.IONodes[i/4%2], sr.Seeds[i/8%3], sr.Versions[i/24]
		if p.index != i || p.fault != fault || p.tier != tier || p.req.IONodes != ion ||
			p.req.Seed != seed || p.req.Version != version || p.req.StripeUnit != 65536 {
			t.Fatalf("point %d = index %d version %s seed %d ionodes %d tier %d fault %d, want %s %d %d %d %d",
				i, p.index, p.req.Version, p.req.Seed, p.req.IONodes, p.tier, p.fault,
				version, seed, ion, tier, fault)
		}
	}
}

// TestSweepRejectsOversizeGridBeforeExpanding sends a small body that
// declares a million points (1000 seeds × 1000 I/O-node counts). The
// daemon must answer 400 against the cap without materialising the
// grid: the whole request, JSON decoding included, stays within a
// fixed allocation budget.
func TestSweepRejectsOversizeGridBeforeExpanding(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"app":"escat","versions":["A"],"seeds":[`)
	for i := 1; i <= 1000; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, i)
	}
	b.WriteString(`],"ionodes":[`)
	for i := 1; i <= 1000; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, i)
	}
	b.WriteString(`]}`)
	body := b.String()

	s := newTestServer(t, Config{}, stubRun)
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
		return rec
	}
	rec := post()
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("status %d, body %s: %v", rec.Code, rec.Body, err)
	}
	if rec.Code != 400 || e.Error.Code != ErrCodeInvalidRequest || !strings.Contains(e.Error.Message, "over the 256-point cap") {
		t.Fatalf("status %d, error %+v; want 400 invalid_request over the 256-point cap", rec.Code, e.Error)
	}
	if allocs := testing.AllocsPerRun(2, func() { post() }); allocs > 100 {
		t.Errorf("rejecting the oversize sweep took %.0f allocations, want at most 100", allocs)
	}
}
