package disk

import (
	"testing"
	"testing/quick"
	"time"
)

func newDefault(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"no data disks", func(p *Params) { p.DataDisks = 0 }},
		{"zero bandwidth", func(p *Params) { p.DiskBW = 0 }},
		{"negative seek", func(p *Params) { p.AvgSeek = -time.Millisecond }},
		{"negative overhead", func(p *Params) { p.Overhead = -time.Millisecond }},
		{"track > avg seek", func(p *Params) { p.TrackSeek = p.AvgSeek + time.Millisecond }},
		{"zero capacity", func(p *Params) { p.CapacityGB = 0 }},
		{"negative capacity", func(p *Params) { p.CapacityGB = -4.8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			if err := p.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", p)
			}
		})
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestArrayBW(t *testing.T) {
	p := DefaultParams()
	if got, want := p.ArrayBW(), 4*2.5e6; got != want {
		t.Fatalf("ArrayBW = %g, want %g", got, want)
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	a := newDefault(t)
	first := a.Service(0, 0, 65536)     // cold: positioned
	seq := a.Service(0, 65536, 65536)   // sequential continuation
	rand := a.Service(0, 10<<20, 65536) // jump
	if seq >= first {
		t.Fatalf("sequential (%v) not cheaper than cold (%v)", seq, first)
	}
	if seq >= rand {
		t.Fatalf("sequential (%v) not cheaper than random (%v)", seq, rand)
	}
}

func TestStreamSwitchBreaksSequentiality(t *testing.T) {
	a := newDefault(t)
	a.Service(0, 0, 65536)
	other := a.Service(1, 65536, 65536) // same offset, different stream
	a2 := newDefault(t)
	a2.Service(0, 0, 65536)
	same := a2.Service(0, 65536, 65536)
	if other <= same {
		t.Fatalf("cross-stream request (%v) priced as sequential (%v)", other, same)
	}
}

func TestLargeRequestAmortizesPositioning(t *testing.T) {
	a := newDefault(t)
	small := a.Service(0, 1<<30, 512)
	large := newDefault(t).Service(0, 1<<30, 1<<20)
	// Effective bandwidth of the large request must be far higher.
	smallBW := 512 / small.Seconds()
	largeBW := float64(1<<20) / large.Seconds()
	if largeBW < 20*smallBW {
		t.Fatalf("large-request bandwidth %.0f not >> small-request %.0f", largeBW, smallBW)
	}
}

func TestServiceTimeComponents(t *testing.T) {
	p := DefaultParams()
	a := MustNewArray(p)
	d := a.Service(0, 4096, 65536)
	want := p.Overhead + p.AvgSeek + p.Rotation/2 +
		time.Duration(65536/p.ArrayBW()*float64(time.Second))
	if d != want {
		t.Fatalf("Service = %v, want %v", d, want)
	}
	d2 := a.Service(0, 4096+65536, 65536)
	want2 := p.Overhead + p.TrackSeek/4 +
		time.Duration(65536/p.ArrayBW()*float64(time.Second))
	if d2 != want2 {
		t.Fatalf("sequential Service = %v, want %v", d2, want2)
	}
}

// TestFirstRequestIsPositioned: an array starts with no previous
// request, so its first one pays positioning even at stream 0, offset 0,
// where the zero head state would otherwise look like a continuation.
func TestFirstRequestIsPositioned(t *testing.T) {
	p := DefaultParams()
	a := MustNewArray(p)
	d := a.Service(0, 0, 65536)
	want := p.Overhead + p.AvgSeek + p.Rotation/2 +
		time.Duration(65536/p.ArrayBW()*float64(time.Second))
	if d != want || a.Stats().SeqHits != 0 {
		t.Fatalf("first Service = %v (%d sequential hits), want positioned %v", d, a.Stats().SeqHits, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := newDefault(t)
	a.Service(0, 0, 1000)
	a.Service(0, 1000, 1000)
	a.Service(1, 0, 500)
	s := a.Stats()
	if s.Requests != 3 {
		t.Fatalf("Requests = %d, want 3", s.Requests)
	}
	if s.SeqHits != 1 {
		t.Fatalf("SeqHits = %d, want 1", s.SeqHits)
	}
	if s.BytesMoved != 2500 {
		t.Fatalf("BytesMoved = %d, want 2500", s.BytesMoved)
	}
	if s.Busy <= 0 {
		t.Fatalf("Busy = %v", s.Busy)
	}
}

func TestNonPositiveSizePanics(t *testing.T) {
	a := newDefault(t)
	for _, size := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Service(size=%d) did not panic", size)
				}
			}()
			a.Service(0, 0, size)
		}()
	}
}

func TestServicePositiveProperty(t *testing.T) {
	a := newDefault(t)
	f := func(off uint32, size uint16, seq bool) bool {
		s := int64(size) + 1
		var o int64
		if seq {
			o = a.lastEnd
		} else {
			o = int64(off)
		}
		return a.Service(0, o, s) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServiceMonotoneInSizeForColdRequests(t *testing.T) {
	f := func(s1, s2 uint32) bool {
		lo, hi := int64(s1)+1, int64(s2)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		a1 := MustNewArray(DefaultParams())
		a2 := MustNewArray(DefaultParams())
		return a1.Service(0, 999, lo) <= a2.Service(0, 999, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
