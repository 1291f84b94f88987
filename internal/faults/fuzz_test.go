package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzPlanRoundTrip hardens Plan.Validate and pins Plan.String as a
// content address: Validate and String never panic; a plan Validate
// accepts against a topology is also accepted shape-only, has a finite
// straggler factor and a client-flap series whose last flap fits the
// virtual clock; and its String parses back (with the
// test-local parser below) to the same plan up to the defaults String
// makes explicit, so two semantically different valid plans never share
// a string.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add(string(DiskFail), int64(time.Second), int64(0), 3, 0, 0.0, int64(0), 0, 16, false)
	f.Add(string(NodeCrash), int64(0), int64(2*time.Second), 1, 0, 0.0, int64(0), 0, 4, true)
	f.Add(string(Straggler), int64(time.Second), int64(0), 2, 0, 4.0, int64(0), 0, 16, false)
	f.Add(string(Straggler), int64(time.Second), int64(0), 2, 0, 1.0000000000000002, int64(0), 0, 0, false)
	f.Add(string(Straggler), int64(time.Second), int64(0), 2, 0, math.NaN(), int64(0), 0, 16, false)
	f.Add(string(Straggler), int64(time.Second), int64(0), 2, 0, math.Inf(1), int64(0), 0, 16, false)
	f.Add(string(ClientFlap), int64(time.Second), int64(0), 0, 7, 0.0, int64(0), 0, 16, false)
	f.Add(string(ClientFlap), int64(time.Second), int64(0), 0, 0, 0.0, int64(time.Second), 5, 16, true)
	f.Add(string(ClientFlap), int64(time.Millisecond), int64(0), 0, 1, 0.0, int64(4000000000000*time.Millisecond), 4, 16, false)
	f.Add("disk-melt", int64(-1), int64(-2), -1, -1, -1.0, int64(-1), -1, -1, false)
	f.Fuzz(func(t *testing.T, kind string, at, until int64, ionode, node int, factor float64,
		period int64, count, ioNodes int, twice bool) {
		flt := Fault{Kind: Kind(kind), At: time.Duration(at), Until: time.Duration(until), IONode: ionode,
			Node: node, Factor: factor, Period: time.Duration(period), Count: count}
		p := plan(flt)
		if twice {
			p.Faults = append(p.Faults, flt)
		}
		s := p.String()
		if p.Validate(ioNodes) != nil {
			return
		}
		if err := p.Validate(0); err != nil {
			t.Fatalf("plan valid for %d I/O nodes fails shape-only: %v", ioNodes, err)
		}
		if flt.Kind == Straggler && (math.IsNaN(flt.Factor) || math.IsInf(flt.Factor, 0)) {
			t.Fatalf("straggler with factor %g accepted", flt.Factor)
		}
		if n := flt.FlapCount(); flt.Kind == ClientFlap && (n > maxFlaps || flt.At+time.Duration(n-1)*flt.Period < flt.At) {
			t.Fatalf("client-flap series of %d every %v from %v accepted", n, flt.Period, flt.At)
		}
		got, err := parsePlan(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		want := canonicalPlan(p)
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("round trip through %q:\n got %#v\nwant %#v", s, got, want)
		}
		if err := got.Validate(ioNodes); err != nil {
			t.Fatalf("parsed plan %q fails Validate: %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("String not canonical: %q re-renders as %q", s, got.String())
		}
	})
}

// canonicalPlan applies the defaults String makes explicit.
func canonicalPlan(p Plan) Plan {
	out := Plan{Faults: make([]Fault, len(p.Faults))}
	for i, f := range p.Faults {
		if f.Kind == ClientFlap {
			f.Count = f.FlapCount()
		}
		out.Faults[i] = f
	}
	return out
}

// parsePlan inverts Plan.String for valid plans.
func parsePlan(s string) (Plan, error) {
	var p Plan
	if s == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ";") {
		f, err := parseFault(part)
		if err != nil {
			return Plan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

func parseFault(s string) (Fault, error) {
	kind, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Fault{}, fmt.Errorf("no @ in %q", s)
	}
	f := Fault{Kind: Kind(kind)}
	fields := strings.Split(rest, ",")
	when, until, hasUntil := strings.Cut(fields[0], "-")
	var err error
	num := func(s string) int64 {
		v, e := strconv.ParseInt(s, 10, 64)
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	f.At = time.Duration(num(when))
	if hasUntil {
		f.Until = time.Duration(num(until))
	}
	for _, fld := range fields[1:] {
		switch {
		case strings.HasPrefix(fld, "io="):
			f.IONode = int(num(fld[len("io="):]))
		case strings.HasPrefix(fld, "x"):
			f.Factor, err = strconv.ParseFloat(fld[1:], 64)
		case strings.HasPrefix(fld, "node="):
			f.Node = int(num(fld[len("node="):]))
		case strings.HasPrefix(fld, "period="):
			f.Period = time.Duration(num(fld[len("period="):]))
		case strings.HasPrefix(fld, "count="):
			f.Count = int(num(fld[len("count="):]))
		default:
			return Fault{}, fmt.Errorf("unknown field %q in %q", fld, s)
		}
	}
	return f, err
}
