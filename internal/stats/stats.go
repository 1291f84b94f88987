// Package stats provides the descriptive statistics used by the analysis
// layer: summaries, percentiles, empirical CDFs (optionally weighted, for
// the paper's "fraction of data transferred" curves), and burstiness
// measures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Std    float64 // population standard deviation
	Median float64
}

// Describe computes a Summary. An empty sample yields the zero Summary.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 50)
	return s
}

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample by linear interpolation. It panics on an empty sample or an
// out-of-range p.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of range", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CV returns the coefficient of variation (std/mean), a standard
// burstiness indicator for inter-arrival series. Zero-mean samples
// return 0.
func CV(xs []float64) float64 {
	s := Describe(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// Point is one step of an empirical CDF: cumulative probability F at
// value X (i.e. P[V <= X] = F).
type Point struct {
	X float64
	F float64
}

// CDF is an empirical (optionally weighted) cumulative distribution.
type CDF struct {
	points []Point
}

// NewCDF builds the empirical CDF of a sample, each value with equal
// weight. An empty sample yields an empty CDF.
func NewCDF(values []float64) CDF {
	w := make([]float64, len(values))
	for i := range w {
		w[i] = 1
	}
	return NewWeightedCDF(values, w)
}

// NewWeightedCDF builds a CDF where each value contributes its weight —
// the paper's "fraction of data transferred by requests of size <= x"
// curves weight each request by its byte count. Negative weights panic;
// values and weights must have equal length.
func NewWeightedCDF(values, weights []float64) CDF {
	if len(values) != len(weights) {
		panic("stats: values and weights length mismatch")
	}
	if len(values) == 0 {
		return CDF{}
	}
	type vw struct{ v, w float64 }
	rows := make([]vw, len(values))
	var total float64
	for i := range values {
		if weights[i] < 0 {
			panic("stats: negative weight")
		}
		rows[i] = vw{values[i], weights[i]}
		total += weights[i]
	}
	if total == 0 {
		return CDF{}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v < rows[j].v })
	var pts []Point
	var cum float64
	for i := 0; i < len(rows); {
		j := i
		var w float64
		for j < len(rows) && rows[j].v == rows[i].v {
			w += rows[j].w
			j++
		}
		cum += w
		pts = append(pts, Point{X: rows[i].v, F: cum / total})
		i = j
	}
	// Guard against float accumulation drift on the last point.
	pts[len(pts)-1].F = 1
	return CDF{points: pts}
}

// Points returns the CDF's steps in ascending X order.
func (c CDF) Points() []Point { return c.points }

// Empty reports whether the CDF has no mass.
func (c CDF) Empty() bool { return len(c.points) == 0 }

// At returns P[V <= x]. For x below the smallest value it returns 0.
func (c CDF) At(x float64) float64 {
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].X > x })
	if i == 0 {
		return 0
	}
	return c.points[i-1].F
}
