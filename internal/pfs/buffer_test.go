package pfs

import (
	"testing"

	"paragonio/internal/sim"
)

// smallReadRun measures total time for `count` sequential reads of
// `size` bytes with buffering on or off.
func smallReadRun(t *testing.T, size int64, count int, buffered bool) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	m := testMesh(t)
	fs, err := New(k, DefaultConfig(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("f", size*int64(count)+1<<20)
	var loop sim.Time
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MAsync)
		h.SetBuffering(buffered)
		t0 := p.Now()
		for j := 0; j < count; j++ {
			h.Read(p, size)
		}
		loop = p.Now() - t0
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return loop
}

func TestBufferingAcceleratesSmallSequentialReads(t *testing.T) {
	// The PRISM version C effect, inverted: with buffering on, a run of
	// 40-byte header reads is cheap; with buffering off each one is a
	// full disk round trip.
	on := smallReadRun(t, 40, 500, true)
	off := smallReadRun(t, 40, 500, false)
	if off < on*10 {
		t.Fatalf("unbuffered small reads (%v) not >> buffered (%v)", off, on)
	}
}

func TestBufferingPenalizesLargeReads(t *testing.T) {
	// For requests much larger than the buffer, buffering adds a copy
	// penalty — why PRISM's developer disabled it for the restart body.
	on := smallReadRun(t, 155584, 10, true)
	off := smallReadRun(t, 155584, 10, false)
	if on <= off {
		t.Fatalf("buffered large reads (%v) not slower than unbuffered (%v)", on, off)
	}
}

func TestBufferInvalidatedByWrite(t *testing.T) {
	k := sim.NewKernel()
	m := testMesh(t)
	fs, _ := New(k, DefaultConfig(m), nil)
	fs.CreateFile("f", 1<<20)
	var hit, postWrite sim.Time
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MAsync)
		h.Read(p, 100) // fills buffer
		h.Seek(p, 0)
		t0 := p.Now()
		h.Read(p, 100) // buffer hit
		hit = p.Now() - t0
		h.Seek(p, 0)
		h.Write(p, 10) // invalidates
		h.Seek(p, 0)
		t0 = p.Now()
		h.Read(p, 100) // must go to disk again
		postWrite = p.Now() - t0
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if postWrite <= hit*10 {
		t.Fatalf("read after write (%v) not a miss (hit was %v)", postWrite, hit)
	}
}

func TestSeekPreservesBuffer(t *testing.T) {
	// A seek repositions the pointer but does not discard cached data:
	// seek back + reread within the buffered range stays a hit.
	k := sim.NewKernel()
	m := testMesh(t)
	fs, _ := New(k, DefaultConfig(m), nil)
	fs.CreateFile("f", 1<<20)
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MAsync)
		h.Read(p, 100)
		h.Seek(p, 0)
		h.Read(p, 100)
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var reqs uint64
	for _, s := range fs.IONodeStats() {
		reqs += s.Requests
	}
	if reqs != 1 {
		t.Fatalf("disk requests = %d, want 1 (seek must not drop buffer)", reqs)
	}
}

func TestBufferInvalidatedByFlush(t *testing.T) {
	k := sim.NewKernel()
	m := testMesh(t)
	fs, _ := New(k, DefaultConfig(m), nil)
	fs.CreateFile("f", 1<<20)
	var afterFlush, hit sim.Time
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MAsync)
		h.Read(p, 100)
		h.Seek(p, 0)
		t0 := p.Now()
		h.Read(p, 100)
		hit = p.Now() - t0
		h.Flush(p)
		h.Seek(p, 0)
		t0 = p.Now()
		h.Read(p, 100)
		afterFlush = p.Now() - t0
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if afterFlush <= hit*10 {
		t.Fatalf("read after flush (%v) should miss (hit %v)", afterFlush, hit)
	}
}

func TestSetBufferingOffDropsBuffer(t *testing.T) {
	k := sim.NewKernel()
	m := testMesh(t)
	fs, _ := New(k, DefaultConfig(m), nil)
	fs.CreateFile("f", 1<<20)
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MAsync)
		if !h.buffered {
			t.Error("buffering should default on")
		}
		h.Read(p, 100)
		h.SetBuffering(false)
		if h.buffered || h.bufLen != 0 {
			t.Error("SetBuffering(false) did not drop buffer")
		}
		h.SetBuffering(true)
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferReadAheadServesFollowingReads(t *testing.T) {
	// Sequential 1KB reads: the first fills a 64KB buffer; the next 63
	// must be hits (no disk requests).
	k := sim.NewKernel()
	m := testMesh(t)
	fs, _ := New(k, DefaultConfig(m), nil)
	fs.CreateFile("f", 1<<20)
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MAsync)
		for i := 0; i < 64; i++ {
			h.Read(p, 1024)
		}
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var reqs uint64
	for _, s := range fs.IONodeStats() {
		reqs += s.Requests
	}
	if reqs != 1 {
		t.Fatalf("disk requests = %d, want 1 (read-ahead)", reqs)
	}
}
