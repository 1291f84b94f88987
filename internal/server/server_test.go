package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/faults"
	"paragonio/internal/pablo"
	"paragonio/internal/policy"
	"paragonio/internal/sim"
)

// newTestServer builds a daemon with a stubbed engine so handler tests
// don't burn CPU on real simulations.
func newTestServer(t *testing.T, cfg Config, run runFunc) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.runSim = run
	}
	return s
}

// stubRun returns a minimal deterministic result without simulating.
func stubRun(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
	return &core.Result{
		App:     strings.ToUpper(req.App),
		Version: req.Version,
		Nodes:   4,
		Exec:    3 * time.Second,
		Trace:   pablo.NewTrace(),
	}, nil
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.Bytes()
}

func TestSimulateOKAndCacheHit(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"C"}`
	resp, out := postJSON(t, ts, "/v1/simulate", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var first SimulateResponse
	if err := json.Unmarshal(out, &first); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if first.Cached {
		t.Error("first response claims cached")
	}
	if first.App != "prism" || first.Version != "C" || first.Nodes != 4 {
		t.Errorf("response identity %s/%s on %d nodes", first.App, first.Version, first.Nodes)
	}
	if len(first.Hash) != 16 {
		t.Errorf("hash %q not 16 hex digits", first.Hash)
	}

	// The identical request is a cache hit: cached=true, hit counted,
	// and every other field byte-identical.
	_, out2 := postJSON(t, ts, "/v1/simulate", body)
	var second SimulateResponse
	if err := json.Unmarshal(out2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat response not served from cache")
	}
	second.Cached = false
	if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
		t.Errorf("cached response diverges:\n%+v\n%+v", first, second)
	}
	if s.cacheHits.Value() != 1 {
		t.Errorf("cache hits = %d, want 1", s.cacheHits.Value())
	}

	// A semantically different request misses.
	_, out3 := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":2}`)
	var third SimulateResponse
	if err := json.Unmarshal(out3, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Hash == first.Hash {
		t.Error("different seed collided with the cached run")
	}

	// GET /v1/results/{hash} replays the artifact.
	resp4, out4 := getURL(t, ts, "/v1/results/"+first.Hash)
	if resp4.StatusCode != 200 || !bytes.Contains(out4, []byte(`"cached":true`)) {
		t.Errorf("results replay: %d %s", resp4.StatusCode, out4)
	}
	if resp5, _ := getURL(t, ts, "/v1/results/0000000000000000"); resp5.StatusCode != 404 {
		t.Errorf("unknown hash status %d, want 404", resp5.StatusCode)
	}
	if resp6, _ := getURL(t, ts, "/v1/results/nothex"); resp6.StatusCode != 400 {
		t.Errorf("malformed hash status %d, want 400", resp6.StatusCode)
	}
}

// TestSpellingsShareOneContentAddress pins that every accepted spelling
// of one run hashes to one content address: a lowercase version and the
// long dataset name hit the cache entry of the canonical spelling, and a
// sweep listing both version spellings plans one unique point.
func TestSpellingsShareOneContentAddress(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	simulate := func(body string) SimulateResponse {
		t.Helper()
		resp, out := postJSON(t, ts, "/v1/simulate", body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, out)
		}
		var r SimulateResponse
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatalf("%s: bad JSON: %v", body, err)
		}
		return r
	}
	lower := simulate(`{"app":"prism","version":"c"}`)
	upper := simulate(`{"app":"prism","version":"C"}`)
	if upper.Hash != lower.Hash || !upper.Cached {
		t.Errorf(`version "C" hash %s cached=%v; "c" hash %s`, upper.Hash, upper.Cached, lower.Hash)
	}
	long := simulate(`{"app":"escat","dataset":"carbon-monoxide","version":"C"}`)
	short := simulate(`{"app":"escat","dataset":"co","version":"c"}`)
	if short.Hash != long.Hash || !short.Cached {
		t.Errorf(`dataset "co" hash %s cached=%v; "carbon-monoxide" hash %s`, short.Hash, short.Cached, long.Hash)
	}

	resp, body := postJSON(t, ts, "/v1/sweep", `{"app":"prism","versions":["C","c"],"seeds":[3]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	plan, _, summary := parseSweepBody(t, body)
	if plan.Unique != 1 || summary.DedupRequest != 1 {
		t.Errorf("sweep plan %+v summary %+v, want unique=1 dedup_request=1", plan, summary)
	}
}

// TestSimulateShardsIsAdmissionWeightOnly pins the shards field's two
// roles: it never reaches the content address (the same run at shards 1
// and 4 shares one hash, and the second request is a cache hit), and it
// still weighs the run at admission.
func TestSimulateShardsIsAdmissionWeightOnly(t *testing.T) {
	var s *Server
	var free []int
	s = newTestServer(t, Config{Slots: 8}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		free = append(free, s.adm.Free())
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var got [2]SimulateResponse
	for i, body := range []string{
		`{"app":"prism","version":"C","shards":1}`,
		`{"app":"prism","version":"C","shards":4}`,
	} {
		resp, out := postJSON(t, ts, "/v1/simulate", body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, out)
		}
		if err := json.Unmarshal(out, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got[0].Hash != got[1].Hash {
		t.Errorf("shards 1 and 4 hash differently: %s vs %s", got[0].Hash, got[1].Hash)
	}
	if got[0].Cached || !got[1].Cached {
		t.Errorf("cached = %v, %v; want false, true", got[0].Cached, got[1].Cached)
	}

	// A fresh config (seed 2) at shards 4 runs holding four of the eight
	// slots.
	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":2,"shards":4}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if want := []int{7, 4}; fmt.Sprint(free) != fmt.Sprint(want) {
		t.Errorf("free slots during runs = %v, want %v", free, want)
	}
}

func getURL(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.Bytes()
}

// TestSimulateBadRequests pins the error-schema contract: every failure
// is {"error": {"code", "message", "field"}} with a stable code and the
// offending field named on validation errors. No rejected request
// reaches the engine.
func TestSimulateBadRequests(t *testing.T) {
	var runs atomic.Int32
	s := newTestServer(t, Config{}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body      string
		wantCode  string
		wantField string
		wantErr   string
	}{
		{`{not json`, ErrCodeBadJSON, "", "bad request body"},
		{`{"app":"escat","version":"C","bogus":1}`, ErrCodeBadJSON, "", "bad request body"},
		{`{"version":"C"}`, ErrCodeInvalidRequest, "app", "missing app"},
		{`{"app":"fortran","version":"C"}`, ErrCodeInvalidRequest, "app", `unknown app "fortran"`},
		{`{"app":"escat","version":"Z"}`, ErrCodeInvalidRequest, "version", `unknown escat version "Z"`},
		{`{"app":"escat","dataset":"helium","version":"C"}`, ErrCodeInvalidRequest, "dataset", `unknown escat dataset "helium"`},
		{`{"app":"prism","dataset":"ethylene","version":"C"}`, ErrCodeInvalidRequest, "dataset", "prism takes no dataset"},
		{`{"app":"prism","version":"C","shards":-1}`, ErrCodeInvalidRequest, "shards", "shards must be non-negative"},
		{`{"app":"prism","version":"C","ionodes":-1}`, ErrCodeInvalidRequest, "ionodes", "ionodes must be non-negative"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-melt"}]}`,
			ErrCodeInvalidRequest, "faults", "unknown kind"},
		{`{"app":"prism","version":"C","faults":[{"kind":"straggler","ionode":0,"factor":0.5}]}`,
			ErrCodeInvalidRequest, "faults", "need > 1"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","ionode":99}]}`,
			ErrCodeInvalidRequest, "faults", "out of range"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","bogus":1}]}`,
			ErrCodeBadJSON, "", "bad request body"},
		{`{"app":"prism","version":"C","tiers":{"ionode":{"read_ahead":-1}}}`,
			ErrCodeInvalidRequest, "tiers", "negative ReadAhead"},
		{`{"app":"prism","version":"C","tiers":{"client":{"capacity_bytes":-1}}}`,
			ErrCodeInvalidRequest, "tiers", "client CapacityBytes"},
		{`{"app":"prism","version":"C","tiers":{"log":{"drain_batch":-1}}}`,
			ErrCodeInvalidRequest, "tiers", "DrainBatch"},
		{`{"app":"prism","version":"C","tiers":{"log":{"segment_bytes":262144}}}`,
			ErrCodeBadJSON, "", "bad request body"},
	} {
		resp, out := postJSON(t, ts, "/v1/simulate", tc.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", tc.body, resp.StatusCode)
			continue
		}
		var e apiError
		if err := json.Unmarshal(out, &e); err != nil {
			t.Errorf("%s: error body is not the envelope: %v\n%s", tc.body, err, out)
			continue
		}
		if e.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.body, e.Error.Code, tc.wantCode)
		}
		if e.Error.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.body, e.Error.Field, tc.wantField)
		}
		if !strings.Contains(e.Error.Message, tc.wantErr) {
			t.Errorf("%s: message %q does not mention %q", tc.body, e.Error.Message, tc.wantErr)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("engine ran %d times for rejected requests, want 0", n)
	}
}

// TestErrorSchemaOnRunAndResultPaths pins codes on the non-validation
// paths: engine failure (run_failed), unknown result (not_found), and
// malformed result hash (invalid_request on "hash").
func TestErrorSchemaOnRunAndResultPaths(t *testing.T) {
	failing := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		return nil, fmt.Errorf("boom")
	}
	s := newTestServer(t, Config{}, failing)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	var e apiError
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("run failure body: %v\n%s", err, out)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != ErrCodeRunFailed {
		t.Errorf("run failure: status %d code %q, want 422 %s", resp.StatusCode, e.Error.Code, ErrCodeRunFailed)
	}

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/results/0000000000000000", 404, ErrCodeNotFound},
		{"/v1/results/advise/0000000000000000", 404, ErrCodeNotFound},
		{"/v1/results/nothex", 400, ErrCodeInvalidRequest},
		{"/v1/results/a/b/c", 400, ErrCodeInvalidRequest},
	} {
		resp, out := getURL(t, ts, tc.path)
		var e apiError
		if err := json.Unmarshal(out, &e); err != nil {
			t.Errorf("%s: body is not the error envelope: %v\n%s", tc.path, err, out)
			continue
		}
		if resp.StatusCode != tc.status || e.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %s", tc.path, resp.StatusCode, e.Error.Code, tc.status, tc.code)
		}
		if tc.status == 400 && e.Error.Field != "hash" {
			t.Errorf("%s: field %q, want hash", tc.path, e.Error.Field)
		}
	}
}

// TestSimulateFaultsBlock: a faults block reaches the engine config,
// is part of the content address, and counts in the fault-runs metric.
func TestSimulateFaultsBlock(t *testing.T) {
	var got core.Config
	capture := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		got = cfg
		return stubRun(ctx, req, cfg)
	}
	s := newTestServer(t, Config{}, capture)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const degraded = `{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1000,"ionode":0}]}`
	resp, out := postJSON(t, ts, "/v1/simulate", degraded)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got.Faults.String() != "disk-fail@1000000000,io=0" {
		t.Errorf("engine saw plan %q", got.Faults.String())
	}
	if s.faultRuns.Value() != 1 {
		t.Errorf("fault-runs counter = %d, want 1", s.faultRuns.Value())
	}
	var deg SimulateResponse
	if err := json.Unmarshal(out, &deg); err != nil {
		t.Fatal(err)
	}
	_, out = postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	var healthy SimulateResponse
	if err := json.Unmarshal(out, &healthy); err != nil {
		t.Fatal(err)
	}
	if deg.Hash == healthy.Hash {
		t.Error("degraded run shares the healthy run's content address")
	}
	if s.faultRuns.Value() != 1 {
		t.Errorf("healthy run moved the fault-runs counter to %d", s.faultRuns.Value())
	}
}

// TestSimulateLogTierBlock pins the third tier's API surface: the
// tiers.log block reaches the engine as a cache.LogConfig, the log
// counters come back in the response, and the tier is part of the
// content address.
func TestSimulateLogTierBlock(t *testing.T) {
	var got core.Config
	capture := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		got = cfg
		res, err := stubRun(ctx, req, cfg)
		if err == nil && cfg.Tiers.Log != nil {
			res.Log = cache.LogStats{Appends: 512, Drains: 64, Nodes: 4}
		}
		return res, err
	}
	s := newTestServer(t, Config{}, capture)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Any positive capacity is accepted, 512 KB included.
	const logged = `{"app":"prism","version":"C",
		"tiers":{"log":{"capacity_bytes":524288,"drain_deadline_ms":10}}}`
	resp, out := postJSON(t, ts, "/v1/simulate", logged)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got.Tiers.Log == nil {
		t.Fatal("engine saw no log tier")
	}
	if got.Tiers.Log.CapacityBytes != 524288 || got.Tiers.Log.DrainDeadline != 10*time.Millisecond {
		t.Errorf("engine saw log config %+v", got.Tiers.Log)
	}
	var withLog SimulateResponse
	if err := json.Unmarshal(out, &withLog); err != nil {
		t.Fatal(err)
	}
	if withLog.Log == nil || withLog.Log.Appends != 512 {
		t.Errorf("response log block = %+v", withLog.Log)
	}
	_, out = postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	var plain SimulateResponse
	if err := json.Unmarshal(out, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Log != nil {
		t.Errorf("tier-off response carries a log block: %+v", plain.Log)
	}
	if withLog.Hash == plain.Hash {
		t.Error("log-tier run shares the tier-off run's content address")
	}
}

func TestSimulateQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	blocking := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubRun(ctx, req, cfg)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := newTestServer(t, Config{Slots: 1, MaxQueue: 1}, blocking)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	// Occupy the slot, then the queue. Distinct seeds so the requests
	// don't coalesce.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts, "/v1/simulate",
				fmt.Sprintf(`{"app":"prism","version":"C","seed":%d}`, i+1))
		}(i)
	}
	<-started // slot holder is running
	// Wait for the second request to be parked in the admission queue.
	for i := 0; ; i++ {
		if s.adm.QueueLen() == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":99}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.rejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", s.rejected.Value())
	}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
}

func TestSimulateCoalescing(t *testing.T) {
	release := make(chan struct{})
	var runs sync.WaitGroup
	var runCount int32
	var mu sync.Mutex
	blocking := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		mu.Lock()
		runCount++
		mu.Unlock()
		<-release
		return stubRun(ctx, req, cfg)
	}
	s := newTestServer(t, Config{Slots: 4, MaxQueue: 8}, blocking)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"escat","version":"B"}`
	results := make(chan []byte, 3)
	for i := 0; i < 3; i++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			_, out := postJSON(t, ts, "/v1/simulate", body)
			results <- out
		}()
	}
	// Wait until all three requests are attached to one flight.
	for i := 0; ; i++ {
		s.flightMu.Lock()
		refs := 0
		for _, f := range s.flights {
			refs = f.refs
		}
		nf := len(s.flights)
		s.flightMu.Unlock()
		if nf == 1 && refs == 3 {
			break
		}
		if i > 5000 {
			t.Fatalf("flights=%d refs=%d, want one flight with 3 waiters", nf, refs)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	runs.Wait()
	if runCount != 1 {
		t.Errorf("engine ran %d times for 3 identical requests", runCount)
	}
	if s.coalesced.Value() != 2 {
		t.Errorf("coalesced counter = %d, want 2", s.coalesced.Value())
	}
	for i := 0; i < 3; i++ {
		var r SimulateResponse
		if err := json.Unmarshal(<-results, &r); err != nil {
			t.Fatal(err)
		}
		if r.Cached {
			t.Error("coalesced waiter served a cached response")
		}
	}
}

// TestRunPanicIsContained runs a real kernel whose process panics under
// two coalesced requests. Both get run_failed, the panic is counted, and
// the daemon keeps serving: the next request succeeds.
func TestRunPanicIsContained(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	run := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		if calls.Add(1) > 1 {
			return stubRun(ctx, req, cfg)
		}
		<-release
		k := sim.NewKernel()
		k.Spawn("waiter", func(p *sim.Proc) { p.Suspend("reply") })
		k.Spawn("buggy", func(p *sim.Proc) {
			p.Wait(time.Millisecond)
			var m map[string]int
			m["x"]++ // assignment to a nil map: a model bug
		})
		if err := k.Run(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", req.App, err)
		}
		return stubRun(ctx, req, cfg)
	}
	s := newTestServer(t, Config{}, run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"C"}`
	type outcome struct {
		status int
		code   string
	}
	outcomes := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var o outcome
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err == nil {
				var e apiError
				json.NewDecoder(resp.Body).Decode(&e)
				resp.Body.Close()
				o = outcome{resp.StatusCode, e.Error.Code}
			}
			outcomes <- o
		}()
	}
	for i := 0; ; i++ {
		s.flightMu.Lock()
		refs := 0
		for _, f := range s.flights {
			refs = f.refs
		}
		s.flightMu.Unlock()
		if refs == 2 {
			break
		}
		if i > 5000 {
			t.Fatalf("flight refs = %d, want one flight with 2 waiters", refs)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if o := <-outcomes; o.status != http.StatusUnprocessableEntity || o.code != ErrCodeRunFailed {
			t.Errorf("waiter %d: status %d code %q, want 422 %s", i, o.status, o.code, ErrCodeRunFailed)
		}
	}
	if _, out := getURL(t, ts, "/metrics"); !strings.Contains(string(out), "\niosimd_run_panics_total 1\n") {
		t.Error("metrics do not show iosimd_run_panics_total 1")
	}
	if resp, out := postJSON(t, ts, "/v1/simulate", body); resp.StatusCode != 200 {
		t.Errorf("request after the panic: status %d: %s", resp.StatusCode, out)
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"B"}`
	resp, out := postJSON(t, ts, "/v1/advise", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(out, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Cached || !strings.HasPrefix(adv.Hash, "advise/") {
		t.Errorf("advise response: cached=%v hash=%q", adv.Cached, adv.Hash)
	}
	// The returned hash spans two path segments and fetches the artifact.
	resp, got := getURL(t, ts, "/v1/results/"+adv.Hash)
	var fetched AdviseResponse
	if err := json.Unmarshal(got, &fetched); resp.StatusCode != 200 || err != nil {
		t.Fatalf("GET /v1/results/%s: status %d: %s", adv.Hash, resp.StatusCode, got)
	}
	if fetched.Hash != adv.Hash || fetched.Advice != adv.Advice {
		t.Errorf("fetched %+v, want the advice posted under %s", fetched, adv.Hash)
	}
	_, out2 := postJSON(t, ts, "/v1/advise", body)
	if !bytes.Contains(out2, []byte(`"cached":true`)) {
		t.Error("repeat advise not served from cache")
	}
	// The advise key namespace is disjoint from simulate's.
	_, out3 := postJSON(t, ts, "/v1/simulate", body)
	if bytes.Contains(out3, []byte(`"cached":true`)) {
		t.Error("simulate collided with the advise cache entry")
	}
}

// TestAdviseSizesForTheSimulatedMachine pins that /v1/advise sizes its
// advice for the machine it ran — the request's I/O node count and fault
// plan — exactly as policy.WriteAdvice does when handed those options.
func TestAdviseSizesForTheSimulatedMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	s := newTestServer(t, Config{}, nil) // real engine
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"C","ionodes":8,
		"faults":[{"kind":"disk-fail","at_ms":1000,"ionode":0}]}`
	resp, out := postJSON(t, ts, "/v1/advise", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(out, &adv); err != nil {
		t.Fatal(err)
	}

	var req SimulateRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.validate(); err != nil {
		t.Fatal(err)
	}
	res, err := defaultRun(context.Background(), &req, req.config())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Trace.Release()
	var want bytes.Buffer
	err = policy.WriteAdvice(&want, policy.Classify(res.Trace), policy.Options{}, policy.CacheOptions{
		IONodes: 8,
		Faults:  faults.Plan{Faults: []faults.Fault{{Kind: faults.DiskFail, At: time.Second}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Advice != want.String() {
		t.Errorf("daemon advice differs from the advisor run on the simulated machine:\n--- daemon\n%s\n--- advisor\n%s",
			adv.Advice, want.String())
	}
}

// TestAdviseJudgesAlignmentByTheRunsStripeUnit pins that /v1/advise
// judges record alignment against the stripe unit the request ran with,
// not the paper machine's 64 KB: 96 KB records are three 32 KB stripes.
func TestAdviseJudgesAlignmentByTheRunsStripeUnit(t *testing.T) {
	const record = 96 << 10
	s := newTestServer(t, Config{}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		res, err := stubRun(ctx, req, cfg)
		if err != nil {
			return nil, err
		}
		// Two nodes read disjoint fixed-size records, interleaved.
		for round := 0; round < 4; round++ {
			for node := 0; node < 2; node++ {
				res.Trace.Record(pablo.Event{Node: int32(node), Op: pablo.OpRead, File: "data",
					Offset: int64(round*2+node) * record, Size: record,
					Duration: time.Millisecond, Mode: pablo.ModeUnix})
			}
		}
		return res, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/advise", `{"app":"prism","version":"C","stripe_unit":32768}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(out, &adv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(adv.Advice, policy.UseRecordReads.String()) {
		t.Fatalf("the stub's fixed-size reads drew no %s advice:\n%s", policy.UseRecordReads, adv.Advice)
	}
	if strings.Contains(adv.Advice, policy.AlignToStripe.String()) {
		t.Errorf("96 KB records on 32 KB stripes drew %s advice:\n%s", policy.AlignToStripe, adv.Advice)
	}
}

func TestHealthzExperimentsMetrics(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, out := getURL(t, ts, "/healthz"); resp.StatusCode != 200 || string(out) != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, out)
	}

	resp, out := getURL(t, ts, "/v1/experiments")
	if resp.StatusCode != 200 {
		t.Fatalf("experiments status %d", resp.StatusCode)
	}
	var rows []struct{ ID, Title string }
	if err := json.Unmarshal(out, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 14 {
		t.Errorf("experiments listed %d entries, want the paper's 14", len(rows))
	}

	postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	resp, out = getURL(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(out)
	for _, want := range []string{
		`iosimd_requests_total{endpoint="simulate",code="200"} 2`,
		"iosimd_cache_hits_total 1",
		"iosimd_cache_misses_total 1",
		"# TYPE iosimd_request_seconds histogram",
		"iosimd_run_seconds_count 1",
		"iosimd_inflight_slots 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestSDDFStream(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","sddf":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	if !bytes.HasPrefix(out, []byte("#SDDF")) {
		t.Errorf("stream is not SDDF: %.120s", out)
	}
	if s.cache.Len() != 0 {
		t.Error("SDDF response entered the result cache")
	}
}

// TestSDDFStreamQueuesPerClient pins that sddf:true runs wait in their
// own client's admission queue: client a filling its queue must not make
// client b's stream fail with queue_full.
func TestSDDFStreamQueuesPerClient(t *testing.T) {
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	started := make(chan struct{}, 4)
	blocking := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubRun(ctx, req, cfg)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := newTestServer(t, Config{Slots: 1, MaxQueue: 1}, blocking)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer releaseAll() // before ts.Close, which waits for the blocked runs

	stream := func(client string, seed int) <-chan int {
		status := make(chan int, 1)
		go func() {
			body := fmt.Sprintf(`{"app":"prism","version":"C","seed":%d,"sddf":true}`, seed)
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				status <- 0
				return
			}
			req.Header.Set("X-Client", client)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				status <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}
	waitQueued := func(n int, early <-chan int) {
		t.Helper()
		for i := 0; s.adm.QueueLen() != n; i++ {
			select {
			case code := <-early:
				t.Fatalf("request answered %d instead of queueing", code)
			default:
			}
			if i > 5000 {
				t.Fatalf("queue length %d, want %d", s.adm.QueueLen(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	a1 := stream("a", 1)
	<-started // a1 holds the only slot
	a2 := stream("a", 2)
	waitQueued(1, a2) // a2 fills client a's queue
	b := stream("b", 3)
	waitQueued(2, b)
	releaseAll()
	for name, ch := range map[string]<-chan int{"a1": a1, "a2": a2, "b": b} {
		if code := <-ch; code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", name, code)
		}
	}
}

// TestDaemonDeterminism runs a real (smallest) canonical simulation
// through the HTTP surface and pins its trace digest against the same
// golden value the CLI and test suite use: the daemon is a transport,
// not a second simulator.
func TestDaemonDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	s := newTestServer(t, Config{}, nil) // real engine
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var r SimulateResponse
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	// Golden digest from internal/experiments/determinism_test.go.
	if r.Digest != "0xbc010fbf3debceec" {
		t.Errorf("daemon prism/C digest %s, golden 0xbc010fbf3debceec", r.Digest)
	}
	if r.Events != 11396 {
		t.Errorf("daemon prism/C events %d, golden 11396", r.Events)
	}

	// The degraded run is just as deterministic: the disk-fail golden
	// from internal/experiments/faults_test.go, reachable over HTTP.
	resp, out = postJSON(t, ts, "/v1/simulate",
		`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1000,"ionode":0}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("degraded status %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if r.Digest != "0x9ce1a397b722477e" {
		t.Errorf("daemon prism/C+disk-fail digest %s, golden 0x9ce1a397b722477e", r.Digest)
	}
	if r.Events != 11396 {
		t.Errorf("daemon prism/C+disk-fail events %d, golden 11396", r.Events)
	}
}
