package pfs

import (
	"testing"
	"time"

	"paragonio/internal/sim"
)

// TestSamplerSeesTokenContention reproduces the mechanism behind the
// paper's Figure 5: concurrent M_UNIX seek/write cycles pile up on the
// file token, and the sampler observes the queue depth ramping into the
// double digits.
func TestSamplerSeesTokenContention(t *testing.T) {
	r := newRig(t)
	s := NewSampler(r.fs, 50*time.Millisecond)
	const nodes = 16
	bar := sim.NewBarrier(r.k, "cycle", nodes)
	for i := 0; i < nodes; i++ {
		i := i
		r.k.Spawn("n", func(p *sim.Proc) {
			h, _ := r.fs.Open(p, i, "quad", MUnix)
			for cyc := 0; cyc < 4; cyc++ {
				bar.Await(p)
				off := int64(cyc*nodes+i) * 2720
				h.Seek(p, off)
				h.Write(p, 2720)
			}
			h.Close(p)
		})
	}
	r.run(t)
	var maxToken, maxMeta int
	for _, sm := range s.Samples() {
		maxToken = max(maxToken, sm.TokenQueue)
		maxMeta = max(maxMeta, sm.MetaQueue)
	}
	if maxToken < nodes/2 {
		t.Fatalf("max token queue = %d, want >= %d under %d-way contention",
			maxToken, nodes/2, nodes)
	}
	if maxMeta < nodes/2 {
		t.Fatalf("max metadata queue = %d during the open wave", maxMeta)
	}
}

func TestSamplerTimeOrderedAndStops(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 8<<20)
	s := NewSampler(r.fs, 10*time.Millisecond)
	r.k.Spawn("reader", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "f", MAsync)
		h.SetBuffering(false)
		for i := 0; i < 40; i++ {
			h.Read(p, 128<<10)
		}
		h.Close(p)
	})
	r.run(t)
	samples := s.Samples()
	if len(samples) < 5 {
		t.Fatalf("only %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			t.Fatal("sample times not increasing")
		}
	}
	// The sampler must not extend the run by more than one interval
	// past the application's last event.
	last := samples[len(samples)-1].T
	if r.k.Now() > last+10*time.Millisecond {
		t.Fatalf("sampler extended the run: now=%v last sample=%v", r.k.Now(), last)
	}
}

// TestSamplerZeroIOSelfStops pins the edge case of a run with no
// application activity at all: the sampler is the only live process, so
// it must stop immediately instead of ticking forever (Kernel.Run would
// otherwise never return).
func TestSamplerZeroIOSelfStops(t *testing.T) {
	r := newRig(t)
	s := NewSampler(r.fs, 10*time.Millisecond)
	r.run(t)
	if now := r.k.Now(); now != 0 {
		t.Fatalf("sampler advanced an empty run to %v", now)
	}
	if n := len(s.Samples()); n != 0 {
		t.Fatalf("got %d samples from an empty run, want 0", n)
	}
}

// TestSamplerComputeOnlyApp covers an application that consumes virtual
// time but performs no I/O: the sampler must tick (all-zero samples) and
// still stop when the application ends.
func TestSamplerComputeOnlyApp(t *testing.T) {
	r := newRig(t)
	s := NewSampler(r.fs, 10*time.Millisecond)
	r.k.Spawn("compute", func(p *sim.Proc) {
		p.Wait(35 * time.Millisecond)
	})
	r.run(t)
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples from a compute-only run")
	}
	for _, sm := range samples {
		if sm.MetaQueue != 0 || sm.TokenQueue != 0 {
			t.Fatalf("phantom queue activity in sample %+v", sm)
		}
	}
	// One interval past the app's end at most.
	if r.k.Now() > 45*time.Millisecond {
		t.Fatalf("sampler extended the run to %v", r.k.Now())
	}
}

// TestSamplerAlignedRunEnd pins sampling when the application ends
// exactly on a sample boundary: the final sample lands precisely at run
// end and the sampler does not tick past it.
func TestSamplerAlignedRunEnd(t *testing.T) {
	r := newRig(t)
	const interval = 25 * time.Millisecond
	s := NewSampler(r.fs, interval)
	r.k.Spawn("compute", func(p *sim.Proc) {
		p.Wait(4 * interval) // ends exactly at the 4th sample instant
	})
	r.run(t)
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	if last := samples[len(samples)-1].T; last != 4*interval {
		t.Fatalf("last sample at %v, want exactly %v", last, 4*interval)
	}
	if r.k.Now() != 4*interval {
		t.Fatalf("run extended past aligned end: %v", r.k.Now())
	}
}

func TestSamplerIntervalValidation(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	NewSampler(r.fs, 0)
}
