package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/experiments"
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
	if s.cache.Stats().Hits != 1 {
		t.Errorf("cache hits = %d, want 1", s.cache.Stats().Hits)
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
// of one run hashes to one content address: a lowercase version, the
// long dataset name and the paper machine's I/O-node count and stripe
// unit spelled out hit the cache entry of the canonical spelling, and a
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

	// The experiment suite keys its ethylene C run at seed 1 by the same
	// address (experiments.TestSuiteKeysRunsByTheDaemonsAddress).
	if got := simulate(`{"app":"escat","version":"C"}`).Hash; got != "82dea089a7176eb4" {
		t.Errorf("escat ethylene C at seed 1 hashes to %s, want 82dea089a7176eb4", got)
	}
	spelled := simulate(`{"app":"escat","version":"C","ionodes":16,"stripe_unit":65536}`)
	if spelled.Hash != "82dea089a7176eb4" || !spelled.Cached {
		t.Errorf("the paper machine spelled out hashes to %s cached=%v, want 82dea089a7176eb4", spelled.Hash, spelled.Cached)
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

// TestIONodesMustFitTheMesh pins the upper bound on ionodes: a count
// with no place on the paper's 16x32 mesh fails validation, so
// /v1/simulate answers 400 and a sweep marks the point invalid without
// running it.
func TestIONodesMustFitTheMesh(t *testing.T) {
	for _, tc := range []struct {
		ionodes int
		ok      bool
	}{{512, true}, {513, false}, {600, false}, {1 << 30, false}} {
		req := SimulateRequest{App: "prism", Version: "C", IONodes: tc.ionodes}
		err := req.validate()
		var fe *fieldError
		if tc.ok != (err == nil) || (err != nil && (!errors.As(err, &fe) || fe.field != "ionodes")) {
			t.Errorf("ionodes %d: validate() = %v, want ok=%v or an ionodes error", tc.ionodes, err, tc.ok)
		}
	}

	var runs atomic.Int32
	s := newTestServer(t, Config{}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		runs.Add(1)
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","ionodes":1073741824}`)
	var e apiError
	if resp.StatusCode != 400 || json.Unmarshal(out, &e) != nil ||
		e.Error.Code != ErrCodeInvalidRequest || e.Error.Field != "ionodes" {
		t.Errorf("simulate: status %d body %s, want 400 invalid_request on ionodes", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts, "/v1/sweep", `{"app":"prism","versions":["C"],"ionodes":[16,1073741824]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, out)
	}
	plan, points, _ := parseSweepBody(t, out)
	if plan.Points != 2 || plan.Invalid != 1 {
		t.Errorf("sweep plan %+v, want points=2 invalid=1", plan)
	}
	for _, p := range points {
		if p.IONodes == 1073741824 && (p.Status != "invalid" || p.Hash != "") {
			t.Errorf("off-mesh point: status %q hash %q, want invalid with no key", p.Status, p.Hash)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
}

// TestSimulateShardsIsIgnored pins that the shards field is accepted and
// ignored: it never reaches the content address (the same run at shards
// 1 and 4 shares one hash, and the second request is a cache hit), and
// it does not weigh the run at admission.
func TestSimulateShardsIsIgnored(t *testing.T) {
	var s *Server
	var free []int
	s = newTestServer(t, Config{Slots: 8}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		s.adm.mu.Lock()
		free = append(free, s.adm.free)
		s.adm.mu.Unlock()
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

	// A fresh config (seed 2) at shards 4 runs holding one of the eight
	// slots.
	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":2,"shards":4}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if want := []int{7, 7}; fmt.Sprint(free) != fmt.Sprint(want) {
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
		{`{"app":"prism","version":"C","tiers":{"client":{}},"faults":[{"kind":"client-flap","period_ms":1,"count":65537}]}`,
			ErrCodeInvalidRequest, "faults", "outside [0, 65536]"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":9300000000000000}]}`,
			ErrCodeInvalidRequest, "faults", "does not fit the nanosecond clock"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1,"until_ms":-9300000000000000}]}`,
			ErrCodeInvalidRequest, "faults", "does not fit the nanosecond clock"},
		{`{"app":"prism","version":"C","sample_ms":18446744073710}`,
			ErrCodeInvalidRequest, "sample_ms", "does not fit the nanosecond clock"},
		{`{"app":"prism","version":"C","tiers":{"ionode":{"write_behind":true,"flush_deadline_ms":18446744073710}}}`,
			ErrCodeInvalidRequest, "tiers", "does not fit the nanosecond clock"},
		{`{"app":"prism","version":"C","tiers":{"client":{"lease_ttl_ms":18446744073710}}}`,
			ErrCodeInvalidRequest, "tiers", "does not fit the nanosecond clock"},
		{`{"app":"prism","version":"C","tiers":{"log":{"drain_deadline_ms":18446744073710}}}`,
			ErrCodeInvalidRequest, "tiers", "does not fit the nanosecond clock"},
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

// overflowingFlapPlan is a client-flap series whose last flap, At +
// 3·Period, lies past the end of the virtual clock.
const overflowingFlapPlan = `{"app":"escat","version":"C","tiers":{"client":{}},` +
	`"faults":[{"kind":"client-flap","node":1,"at_ms":1,"period_ms":4000000000000,"count":4}]}`

// TestOverflowingFlapPlanRejected runs the real engine: a flap series
// that overflows the virtual clock is a 400 on the faults field, not a
// panic while the run's faults are armed, and the daemon keeps serving.
func TestOverflowingFlapPlanRejected(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", overflowingFlapPlan)
	var e apiError
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("status %d, body is not the error envelope: %v\n%s", resp.StatusCode, err, out)
	}
	if resp.StatusCode != 400 || e.Error.Code != ErrCodeInvalidRequest || e.Error.Field != "faults" ||
		!strings.Contains(e.Error.Message, "overflows the virtual clock") {
		t.Errorf("status %d code %q field %q message %q, want 400 %s on faults", resp.StatusCode, e.Error.Code, e.Error.Field, e.Error.Message, ErrCodeInvalidRequest)
	}
	if resp, out := getURL(t, ts, "/healthz"); resp.StatusCode != 200 || string(out) != "ok\n" {
		t.Errorf("healthz after the rejected plan: %d %q", resp.StatusCode, out)
	}
}

// TestOversizedBodyRejected: a body past maxBodyBytes is a 413 with the
// error envelope, read no further than the limit, and the daemon keeps
// serving.
func TestOversizedBodyRejected(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"app":"prism","version":"C","dataset":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, out := postJSON(t, ts, "/v1/simulate", body)
	var e apiError
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("status %d, body is not the error envelope: %v\n%s", resp.StatusCode, err, out)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != ErrCodeTooLarge {
		t.Errorf("status %d code %q, want 413 %s", resp.StatusCode, e.Error.Code, ErrCodeTooLarge)
	}
	if resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`); resp.StatusCode != 200 {
		t.Errorf("simulate after the oversized body: %d %s", resp.StatusCode, out)
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
		if s.adm.Stats().Waiting == 1 {
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
	if s.adm.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s.adm.Stats().Rejected)
	}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
}

// TestSimulateCoalescing pins in-flight coalescing on both run
// endpoints: identical concurrent requests run the engine once, every
// waiter but the first counts as coalesced and gets cached:false, and
// the one run spills exactly one artifact with no temporary file left.
func TestSimulateCoalescing(t *testing.T) {
	for _, path := range []string{"/v1/simulate", "/v1/advise"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			release := make(chan struct{})
			var runs sync.WaitGroup
			var runCount atomic.Int32
			blocking := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
				runCount.Add(1)
				<-release
				return stubRun(ctx, req, cfg)
			}
			dir := t.TempDir()
			s := newTestServer(t, Config{Slots: 4, MaxQueue: 8, SpillDir: dir}, blocking)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			const n = 3
			const body = `{"app":"escat","version":"B"}`
			results := make(chan []byte, n)
			for i := 0; i < n; i++ {
				runs.Add(1)
				go func() {
					defer runs.Done()
					_, out := postJSON(t, ts, path, body)
					results <- out
				}()
			}
			// Wait until every request is attached to one flight.
			waitUntil(t, "one flight with every waiter attached", func() bool {
				s.flightMu.Lock()
				defer s.flightMu.Unlock()
				for _, f := range s.flights {
					return len(s.flights) == 1 && f.refs == n
				}
				return false
			})
			close(release)
			runs.Wait()
			if c := runCount.Load(); c != 1 {
				t.Errorf("engine ran %d times for %d identical requests", c, n)
			}
			if v := s.coalesced.Value(); v != n-1 {
				t.Errorf("coalesced counter = %d, want %d", v, n-1)
			}
			for i := 0; i < n; i++ {
				var r struct {
					Cached *bool `json:"cached"`
				}
				if err := json.Unmarshal(<-results, &r); err != nil {
					t.Fatal(err)
				}
				if r.Cached == nil || *r.Cached {
					t.Error("coalesced waiter not served the live (cached:false) response")
				}
			}
			artifacts, _ := filepath.Glob(filepath.Join(dir, "*.json"))
			temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if len(artifacts) != 1 || len(temps) != 0 {
				t.Errorf("spill dir holds artifacts %v and temporaries %v, want one artifact", artifacts, temps)
			}
		})
	}
}

// TestRunIsStoredWithoutWaiters pins that the run, not its waiters,
// stores a result: a run that finishes after its only client has left
// is cached all the same, and the identical request that follows is a
// hit instead of a second run.
func TestRunIsStoredWithoutWaiters(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var runs atomic.Int32
	s := newTestServer(t, Config{}, func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		if runs.Add(1) == 1 {
			close(started)
			<-release // finishes although its context is cancelled
		}
		return stubRun(ctx, req, cfg)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"C"}`
	ctx, cancel := context.WithCancel(context.Background())
	sent := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		sent <- err
	}()
	<-started
	cancel()
	if err := <-sent; err == nil {
		t.Fatal("the request was answered before its client left")
	}
	var key string
	waitUntil(t, "the flight to lose its only waiter", func() bool {
		s.flightMu.Lock()
		defer s.flightMu.Unlock()
		for k, f := range s.flights {
			key = k
			return f.refs == 0
		}
		return false
	})
	close(release)
	waitUntil(t, "the flight to end", func() bool {
		s.flightMu.Lock()
		defer s.flightMu.Unlock()
		return len(s.flights) == 0
	})
	if _, ok := s.cache.Get(key); !ok {
		t.Fatal("a run that finished with no waiter left was not stored")
	}
	resp, out := postJSON(t, ts, "/v1/simulate", body)
	if resp.StatusCode != 200 || !bytes.Contains(out, []byte(`"cached":true`)) {
		t.Errorf("repeat request: status %d: %s", resp.StatusCode, out)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
}

// waitUntil polls cond for up to about five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 5000 {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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

// scrapeSeries reads /metrics into series → value and the family
// names of its TYPE lines in order.
func scrapeSeries(t *testing.T, ts *httptest.Server) (map[string]int64, []string) {
	t.Helper()
	resp, out := getURL(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	series := make(map[string]int64)
	var types []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, typ)
		} else if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				series[name] = v
			}
		}
	}
	return series, types
}

// TestMetricsAfterWarmStart pins that a daemon booted on a populated
// spill directory shows its warm-start inventory before any request.
func TestMetricsAfterWarmStart(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionMarker), []byte(experiments.KeyVersion+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 1; i <= n; i++ {
		if err := os.WriteFile(filepath.Join(dir, key(i)+".json"), []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{SpillDir: dir}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	series, _ := scrapeSeries(t, ts)
	if v := series["iosimd_cache_spilled_entries"]; v != n {
		t.Errorf("iosimd_cache_spilled_entries %d at boot, want %d", v, n)
	}
	if v := series["iosimd_cache_entries"]; v != 0 {
		t.Errorf("iosimd_cache_entries %d at boot, want 0", v)
	}
}

// TestMetricsMatchStats pins that /metrics is one view of the stores:
// each cache and admission series equals the Stats field it reads,
// after a miss, a hit, evictions under a 3 KB budget, a spill hit, a
// 404 result, a 4-point sweep and a 429, both while a run holds the
// only slot with one request queued and once everything has drained.
// It also pins the order and types of every family.
func TestMetricsMatchStats(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		if req.Seed == 99 {
			started <- struct{}{}
			<-release
		}
		return stubRun(ctx, req, cfg)
	}
	s := newTestServer(t, Config{Slots: 1, MaxQueue: 1, CacheBytes: 3 << 10, SpillDir: t.TempDir()}, run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(when string) {
		t.Helper()
		series, types := scrapeSeries(t, ts)
		cs, as := s.cache.Stats(), s.adm.Stats()
		for name, want := range map[string]int64{
			"iosimd_cache_hits_total":               cs.Hits,
			"iosimd_cache_misses_total":             cs.Misses,
			"iosimd_cache_evictions_total":          cs.Evictions,
			"iosimd_cache_spill_hits_total":         cs.SpillHits,
			"iosimd_cache_bytes":                    cs.Bytes,
			"iosimd_cache_entries":                  int64(cs.Entries),
			"iosimd_cache_spilled_entries":          int64(cs.Spilled),
			"iosimd_queue_depth":                    int64(as.Waiting),
			"iosimd_inflight_slots":                 int64(as.Busy),
			`iosimd_slots_held{kind="interactive"}`: int64(as.Held[KindInteractive]),
			`iosimd_slots_held{kind="sweep"}`:       int64(as.Held[KindSweep]),
			"iosimd_rejected_total":                 as.Rejected,
		} {
			if got, ok := series[name]; !ok || got != want {
				t.Errorf("%s: %s = %d (present %v), Stats says %d", when, name, got, ok, want)
			}
		}
		want := []string{
			"iosimd_requests_total counter",
			"iosimd_request_seconds histogram",
			"iosimd_run_seconds histogram",
			"iosimd_coalesced_total counter",
			"iosimd_cache_hits_total counter",
			"iosimd_cache_misses_total counter",
			"iosimd_cache_evictions_total counter",
			"iosimd_cache_spill_hits_total counter",
			"iosimd_cache_bytes gauge",
			"iosimd_cache_entries gauge",
			"iosimd_cache_spilled_entries gauge",
			"iosimd_queue_depth gauge",
			"iosimd_inflight_slots gauge",
			"iosimd_slots_held gauge",
			"iosimd_rejected_total counter",
			"iosimd_sweep_points_total counter",
			"iosimd_sweep_dedup_total counter",
			"iosimd_fault_runs_total counter",
			"iosimd_run_panics_total counter",
		}
		if fmt.Sprint(types) != fmt.Sprint(want) {
			t.Errorf("%s: metric families\n%q\nwant\n%q", when, types, want)
		}
	}
	check("boot")

	const prismC = `{"app":"prism","version":"C"}`
	postJSON(t, ts, "/v1/simulate", prismC) // miss
	postJSON(t, ts, "/v1/simulate", prismC) // hit
	for seed := 1; seed <= 8; seed++ {      // evict prism/C to disk
		postJSON(t, ts, "/v1/simulate", fmt.Sprintf(`{"app":"prism","version":"C","seed":%d}`, seed))
	}
	postJSON(t, ts, "/v1/simulate", prismC) // spill hit
	if resp, _ := getURL(t, ts, "/v1/results/0000000000000000"); resp.StatusCode != 404 {
		t.Errorf("unknown result status %d, want 404", resp.StatusCode)
	}
	if resp, out := postJSON(t, ts, "/v1/sweep", `{"app":"prism","versions":["A","B"],"seeds":[1,20]}`); resp.StatusCode != 200 {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, out)
	}

	// Hold the only slot, queue one request behind it, and shed a third.
	var wg sync.WaitGroup
	for _, seed := range []int{99, 98} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"app":"prism","version":"C","seed":%d}`, seed)
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		if seed == 99 {
			<-started
		}
	}
	waitUntil(t, "a request queued behind the held slot", func() bool { return s.adm.Stats().Waiting == 1 })
	if resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":97}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", resp.StatusCode, out)
	}
	check("slot held")
	close(release)
	wg.Wait()
	check("drained")

	cs, as := s.cache.Stats(), s.adm.Stats()
	if cs.Hits < 2 || cs.SpillHits < 1 || cs.Evictions == 0 || cs.Misses == 0 || cs.Spilled == 0 || as.Rejected != 1 {
		t.Errorf("probe sequence did not exercise the stores: %+v %+v", cs, as)
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
	if s.cache.Stats().Entries != 0 {
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
		for i := 0; s.adm.Stats().Waiting != n; i++ {
			select {
			case code := <-early:
				t.Fatalf("request answered %d instead of queueing", code)
			default:
			}
			if i > 5000 {
				t.Fatalf("queue length %d, want %d", s.adm.Stats().Waiting, n)
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
