package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDescribe(t *testing.T) {
	s := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("N/Min/Max = %d/%g/%g", s.N, s.Min, s.Max)
	}
	if !near(s.Mean, 5) {
		t.Fatalf("Mean = %g", s.Mean)
	}
	if !near(s.Std, 2) {
		t.Fatalf("Std = %g", s.Std)
	}
	if !near(s.Median, 4.5) {
		t.Fatalf("Median = %g", s.Median)
	}
}

func TestDescribeEmptyAndSingle(t *testing.T) {
	if s := Describe(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Describe([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.Median != 3 {
		t.Fatalf("single: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 90: 4.6}
	for p, want := range cases {
		if got := Percentile(xs, p); !near(got, want) {
			t.Errorf("P%g = %g, want %g", p, got, want)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("CV of constant = %g", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV of zeros = %g", got)
	}
	if CV([]float64{1, 100}) <= CV([]float64{49, 51}) {
		t.Fatal("bursty sample should have higher CV")
	}
}

func TestNewCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 10})
	if c.Empty() {
		t.Fatal("non-empty sample gave empty CDF")
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %g", got)
	}
	if got := c.At(1); !near(got, 0.25) {
		t.Fatalf("At(1) = %g", got)
	}
	if got := c.At(2); !near(got, 0.75) {
		t.Fatalf("At(2) = %g", got)
	}
	if got := c.At(9.99); !near(got, 0.75) {
		t.Fatalf("At(9.99) = %g", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %g", got)
	}
	if got := c.At(1e12); got != 1 {
		t.Fatalf("At(inf) = %g", got)
	}
}

func TestWeightedCDF(t *testing.T) {
	// Two small requests of 100 bytes, one of 1MB: by count small is
	// 2/3; by bytes small is ~0.02%.
	values := []float64{100, 100, 1 << 20}
	counts := NewCDF(values)
	data := NewWeightedCDF(values, values)
	if got := counts.At(100); !near(got, 2.0/3) {
		t.Fatalf("count CDF At(100) = %g", got)
	}
	if got := data.At(100); got > 0.001 {
		t.Fatalf("data CDF At(100) = %g, want tiny", got)
	}
	if got := data.At(1 << 20); got != 1 {
		t.Fatalf("data CDF At(max) = %g", got)
	}
}

func TestCDFEdgeCases(t *testing.T) {
	if !NewCDF(nil).Empty() {
		t.Fatal("empty sample should give empty CDF")
	}
	zero := NewWeightedCDF([]float64{1, 2}, []float64{0, 0})
	if !zero.Empty() {
		t.Fatal("zero-weight CDF should be empty")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative weight should panic")
			}
		}()
		NewWeightedCDF([]float64{1}, []float64{-1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch should panic")
			}
		}()
		NewWeightedCDF([]float64{1}, []float64{1, 2})
	}()
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		pts := c.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].F < pts[i-1].F {
				return false
			}
		}
		return pts[len(pts)-1].F == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAtMatchesDirectCountProperty(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		c := NewCDF(vals)
		var n int
		for _, v := range vals {
			if v <= float64(probe) {
				n++
			}
		}
		want := float64(n) / float64(len(vals))
		return math.Abs(c.At(float64(probe))-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMatchesSortProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		sort.Float64s(vals)
		// P0 and P100 are exactly min and max.
		return Percentile(vals, 0) == vals[0] && Percentile(vals, 100) == vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
