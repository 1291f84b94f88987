// Package metrics is a minimal, dependency-free Prometheus exposition
// library for the iosimd daemon: counters, histograms, a labeled
// counter family (CounterVec), and values read at scrape
// (Registry.Func), rendered in the Prometheus text format (version
// 0.0.4) by Registry.WritePrometheus.
//
// A Counter or Histogram is counted where the work happens, in the
// request path. A Func is read at exposition from the store that owns
// the count (the daemon's result cache and admitter keep their own
// counts under their own locks), so a store and its series never hold
// two copies of one number that could disagree.
//
// It exists because the repository is stdlib-only by charter: the
// daemon's observability layer cannot take the client_golang dependency,
// and the subset it needs — atomic counters, fixed-bucket latency
// histograms, dynamic label families such as per-endpoint/status
// request counts, and values read at scrape — is small enough to
// hand-roll and pin with tests.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered exposition family member.
type metric interface {
	// family returns the metric family name (without label suffixes).
	family() string
	typeName() string
	helpText() string
	// write renders the sample lines (no HELP/TYPE headers).
	write(w io.Writer)
}

// Registry holds registered metrics and renders them in registration
// order, emitting each family's HELP/TYPE header once.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if !seen[m.family()] {
			seen[m.family()] = true
			fmt.Fprintf(w, "# HELP %s %s\n", m.family(), m.helpText())
			fmt.Fprintf(w, "# TYPE %s %s\n", m.family(), m.typeName())
		}
		m.write(w)
	}
}

// labelPairs renders {k1="v1",k2="v2"} (or "" for no labels).
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%q", n, values[i])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// splitPairs splits alternating name, value constant labels.
func splitPairs(pairs []string) (names, values []string) {
	if len(pairs)%2 != 0 {
		panic("metrics: constant labels must be name/value pairs")
	}
	for i := 0; i < len(pairs); i += 2 {
		names = append(names, pairs[i])
		values = append(values, pairs[i+1])
	}
	return names, values
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	name, help string
	labels     string // pre-rendered constant label pairs, may be ""
	v          atomic.Uint64
}

// Counter registers a new counter. It has no labels: use CounterVec for
// a labeled family.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters are monotone).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) family() string   { return c.name }
func (c *Counter) typeName() string { return "counter" }
func (c *Counter) helpText() string { return c.help }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", c.name, c.labels, c.v.Load())
}

// funcMetric is a metric whose value is read from its owner each time
// the registry is rendered: the owner keeps the count under its own
// lock, and nothing is pushed to the registry between scrapes.
type funcMetric struct {
	name, help, typ string
	labels          string // pre-rendered constant label pairs, may be ""
	fn              func() int64
}

// Func registers a metric of type typ ("counter" or "gauge") whose
// value fn returns at each exposition, with optional constant labels
// given as alternating name, value pairs ("kind", "sweep"). Several
// Funcs of one family (distinct constant labels) share one HELP/TYPE
// header.
func (r *Registry) Func(name, help, typ string, fn func() int64, constLabels ...string) {
	r.register(&funcMetric{name: name, help: help, typ: typ,
		labels: labelPairs(splitPairs(constLabels)), fn: fn})
}

func (f *funcMetric) family() string   { return f.name }
func (f *funcMetric) typeName() string { return f.typ }
func (f *funcMetric) helpText() string { return f.help }
func (f *funcMetric) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", f.name, f.labels, f.fn())
}

// Histogram is a fixed-bucket histogram of float64 observations
// (typically seconds). Buckets are cumulative upper bounds; an implicit
// +Inf bucket is always present.
type Histogram struct {
	name, help string
	labelNames []string
	labelVals  []string
	bounds     []float64

	mu     sync.Mutex
	counts []uint64 // parallel to bounds, plus one slot for +Inf
	sum    float64
	total  uint64
}

// DefaultLatencyBuckets spans sub-millisecond cache hits to minute-long
// scaled-mesh simulations.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30, 60}
}

// Histogram registers a histogram with the given cumulative upper
// bounds (sorted ascending) and optional constant labels given as
// alternating name, value pairs ("endpoint", "simulate").
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairsList ...string) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be sorted")
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	h.labelNames, h.labelVals = splitPairs(labelPairsList)
	r.register(h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

func (h *Histogram) family() string   { return h.name }
func (h *Histogram) typeName() string { return "histogram" }
func (h *Histogram) helpText() string { return h.help }
func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		names := append(append([]string(nil), h.labelNames...), "le")
		vals := append(append([]string(nil), h.labelVals...), formatBound(b))
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, labelPairs(names, vals), cum)
	}
	cum += counts[len(h.bounds)]
	names := append(append([]string(nil), h.labelNames...), "le")
	vals := append(append([]string(nil), h.labelVals...), "+Inf")
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, labelPairs(names, vals), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", h.name, labelPairs(h.labelNames, h.labelVals), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, labelPairs(h.labelNames, h.labelVals), total)
}

// formatBound renders a bucket bound the way Prometheus expects.
func formatBound(b float64) string {
	if math.IsInf(b, +1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// CounterVec is a family of counters distinguished by label values
// created on first use — the shape of per-endpoint/per-status request
// counts, whose status codes are not known at registration time.
type CounterVec struct {
	name, help string
	labelNames []string

	mu       sync.Mutex
	children map[string]*Counter
	order    []string // insertion-ordered child keys for stable output
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic("metrics: CounterVec needs at least one label")
	}
	v := &CounterVec{name: name, help: help, labelNames: labelNames,
		children: make(map[string]*Counter)}
	r.register(v)
	return v
}

// With returns the child counter for the given label values, creating it
// on first use. The value count must match the registered label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if len(labelValues) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			v.name, len(v.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{name: v.name, help: v.help,
			labels: labelPairs(v.labelNames, labelValues)}
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

func (v *CounterVec) family() string   { return v.name }
func (v *CounterVec) typeName() string { return "counter" }
func (v *CounterVec) helpText() string { return v.help }
func (v *CounterVec) write(w io.Writer) {
	v.mu.Lock()
	children := make([]*Counter, 0, len(v.order))
	for _, k := range v.order {
		children = append(children, v.children[k])
	}
	v.mu.Unlock()
	for _, c := range children {
		c.write(w)
	}
}
