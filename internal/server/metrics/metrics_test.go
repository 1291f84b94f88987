package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCounterFunc pins a Counter and Funcs side by side: a Func is read
// at each exposition, carries its type and constant labels, and Funcs
// of one family share one HELP/TYPE header.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	depth := int64(7)
	r.Func("test_depth", "a gauge", "gauge", func() int64 { return depth })
	r.Func("test_held", "held by kind", "gauge", func() int64 { return 2 }, "kind", "a")
	r.Func("test_held", "held by kind", "gauge", func() int64 { return 3 }, "kind", "b")
	r.Func("test_seen_total", "a counter read at scrape", "counter", func() int64 { return 11 })
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	render := func() string {
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	want := `# HELP test_total a counter
# TYPE test_total counter
test_total 5
# HELP test_depth a gauge
# TYPE test_depth gauge
test_depth 7
# HELP test_held held by kind
# TYPE test_held gauge
test_held{kind="a"} 2
test_held{kind="b"} 3
# HELP test_seen_total a counter read at scrape
# TYPE test_seen_total counter
test_seen_total 11
`
	if got := render(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	depth = -2
	if got := render(); !strings.Contains(got, "\ntest_depth -2\n") {
		t.Errorf("Func not re-read at exposition:\n%s", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1, 10}, "endpoint", "simulate")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{endpoint="simulate",le="0.1"} 1`,
		`test_seconds_bucket{endpoint="simulate",le="1"} 3`,
		`test_seconds_bucket{endpoint="simulate",le="10"} 4`,
		`test_seconds_bucket{endpoint="simulate",le="+Inf"} 5`,
		`test_seconds_sum{endpoint="simulate"} 56.05`,
		`test_seconds_count{endpoint="simulate"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaryObservation pins that an observation exactly on a
// bucket bound lands in that bucket (le is an inclusive upper bound).
func TestHistogramBoundaryObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "bounds", []float64{1, 2})
	h.Observe(1.0)
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `b_seconds_bucket{le="1"} 1`) {
		t.Errorf("observation on the bound escaped its bucket:\n%s", b.String())
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "endpoint", "code")
	v.With("simulate", "200").Add(2)
	v.With("simulate", "400").Inc()
	v.With("advise", "200").Inc()
	if v.With("simulate", "200").Value() != 2 {
		t.Error("child counter identity not stable")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`req_total{endpoint="simulate",code="200"} 2`,
		`req_total{endpoint="simulate",code="400"} 1`,
		`req_total{endpoint="advise",code="200"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Error("family header not emitted exactly once")
	}
}

// TestSharedFamilyHeader pins that several histograms in one family
// (distinct constant labels) share one HELP/TYPE header.
func TestSharedFamilyHeader(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_seconds", "latency", []float64{1}, "endpoint", "a").Observe(0.5)
	r.Histogram("lat_seconds", "latency", []float64{1}, "endpoint", "b").Observe(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if strings.Count(out, "# TYPE lat_seconds histogram") != 1 {
		t.Errorf("family header emitted more than once:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{endpoint="b",le="+Inf"} 1`) {
		t.Errorf("second family member missing:\n%s", out)
	}
}

// TestConcurrentUse drives every metric type from parallel goroutines;
// run under -race this pins the synchronization.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	var g atomic.Int64
	r.Func("g", "g", "gauge", g.Load)
	h := r.Histogram("h_seconds", "h", DefaultLatencyBuckets())
	v := r.CounterVec("v_total", "v", "code")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				v.With([]string{"200", "400", "429"}[j%3]).Inc()
			}
		}(i)
	}
	var b strings.Builder
	r.WritePrometheus(&b) // concurrent scrape
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}
