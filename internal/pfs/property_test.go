package pfs

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// TestPropertyRandomOpSequences drives random single-node op sequences
// through every non-collective mode and checks the system invariants:
// virtual time is monotone, every operation is traced exactly once with
// a non-negative duration, file size never shrinks, and read clamping
// never returns more than requested or than the file holds.
func TestPropertyRandomOpSequences(t *testing.T) {
	f := func(seed int64, modeSel uint8, opsRaw []byte) bool {
		mode := []Mode{MUnix, MAsync, MLog}[int(modeSel)%3]
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		m := testMesh(t)
		tr := pablo.NewTrace()
		fs, err := New(k, DefaultConfig(m), tr)
		if err != nil {
			return false
		}
		fs.CreateFile("f", 1<<20)
		ok := true
		k.Spawn("p", func(p *sim.Proc) {
			h, err := fs.Open(p, 0, "f", mode)
			if err != nil {
				ok = false
				return
			}
			lastNow := p.Now()
			lastSize := fs.FileSize("f")
			for _, b := range opsRaw {
				switch b % 4 {
				case 0:
					size := int64(rng.Intn(200000)) + 1
					n, err := h.Read(p, size)
					if err != nil || n < 0 || n > size {
						ok = false
						return
					}
				case 1:
					size := int64(rng.Intn(200000)) + 1
					if _, err := h.Write(p, size); err != nil {
						ok = false
						return
					}
				case 2:
					off := int64(rng.Intn(1 << 21))
					err := h.Seek(p, off)
					if mode.SharedPointer() {
						if err != ErrSeekCollective {
							ok = false
							return
						}
					} else if err != nil {
						ok = false
						return
					}
				case 3:
					if err := h.Flush(p); err != nil {
						ok = false
						return
					}
				}
				if p.Now() < lastNow {
					ok = false
					return
				}
				lastNow = p.Now()
				if fs.FileSize("f") < lastSize {
					ok = false
					return
				}
				lastSize = fs.FileSize("f")
			}
			if err := h.Close(p); err != nil {
				ok = false
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		if !ok {
			return false
		}
		for _, ev := range tr.Events() {
			if ev.Duration < 0 || ev.Size < 0 || ev.Offset < 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStripingConservation: for random (offset, size) requests,
// the per-I/O-node chunks exactly tile the request.
func TestPropertyStripingConservation(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<40)
	f := r.fs.lookup("f", false)
	u := r.fs.cfg.StripeUnit
	prop := func(offRaw uint32, sizeRaw uint32) bool {
		off := int64(offRaw)
		size := int64(sizeRaw) + 1
		lists, _ := splitChunks(r.fs, f, off, size)
		covered := map[int64]int64{}
		var total int64
		for _, chunks := range lists {
			for _, c := range chunks {
				if c.size <= 0 || c.size > u {
					return false
				}
				if _, dup := covered[c.off]; dup {
					return false
				}
				covered[c.off] = c.size
				total += c.size
			}
		}
		if total != size {
			return false
		}
		next := off
		for next < off+size {
			n, ok := covered[next]
			if !ok {
				return false
			}
			next += n
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStripeToIONodeStable: the same (file, offset) always maps
// to the same I/O node, and offsets within one stripe unit share it.
func TestPropertyStripeToIONodeStable(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<40)
	f := r.fs.lookup("f", false)
	u := r.fs.cfg.StripeUnit
	ioOf := func(off int64) int {
		_, ios := splitChunks(r.fs, f, off, 1)
		if len(ios) == 0 {
			return -1
		}
		return ios[0]
	}
	prop := func(offRaw uint32) bool {
		off := int64(offRaw)
		io1 := ioOf(off)
		io2 := ioOf(off)
		if io1 != io2 {
			return false
		}
		stripeStart := (off / u) * u
		return ioOf(stripeStart) == io1 && ioOf(stripeStart+u-1) == io1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMRecordTiling: for random group sizes and round counts,
// M_RECORD writes tile the file with no gaps or overlaps.
func TestPropertyMRecordTiling(t *testing.T) {
	prop := func(nRaw, roundsRaw uint8) bool {
		n := int(nRaw)%7 + 2           // 2..8 nodes
		rounds := int(roundsRaw)%4 + 1 // 1..4 rounds
		const rec = 8192
		k := sim.NewKernel()
		m := testMesh(t)
		tr := pablo.NewTrace()
		fs, err := New(k, DefaultConfig(m), tr)
		if err != nil {
			return false
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		g, err := fs.NewGroup(ids)
		if err != nil {
			return false
		}
		for _, id := range ids {
			id := id
			k.Spawn("n", func(p *sim.Proc) {
				h, err := g.Gopen(p, id, "out", MRecord)
				if err != nil {
					panic(err)
				}
				for r := 0; r < rounds; r++ {
					if _, err := h.Write(p, rec); err != nil {
						panic(err)
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		if fs.FileSize("out") != int64(n*rounds*rec) {
			return false
		}
		seen := map[int64]bool{}
		for _, ev := range byOp(tr, pablo.OpWrite) {
			if ev.Offset%rec != 0 || seen[ev.Offset] {
				return false
			}
			seen[ev.Offset] = true
		}
		return len(seen) == n*rounds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// ---- failure injection ----

// TestCollectiveDesertionDeadlocks: a group member that never joins a
// collective leaves the rest parked; the kernel reports exactly which
// processes are blocked and why.
func TestCollectiveDesertionDeadlocks(t *testing.T) {
	r := newRig(t)
	g, _ := r.fs.NewGroup([]int{0, 1, 2})
	for _, id := range []int{0, 1, 2} {
		id := id
		r.k.Spawn("n", func(p *sim.Proc) {
			if id == 2 {
				return // deserts before the gopen
			}
			g.Gopen(p, id, "f", MGlobal)
		})
	}
	err := r.k.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

// TestCollectiveErrorPathReleasesEveryone: a collective parameter
// mismatch must not deadlock — every member gets the error and the run
// drains cleanly.
func TestCollectiveErrorPathReleasesEveryone(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<20)
	g, _ := r.fs.NewGroup([]int{0, 1, 2, 3})
	errs := make([]error, 4)
	finished := 0
	for _, id := range []int{0, 1, 2, 3} {
		id := id
		r.k.Spawn("n", func(p *sim.Proc) {
			h, err := g.Gopen(p, id, "f", MGlobal)
			if err != nil {
				t.Error(err)
				return
			}
			_, errs[id] = h.Read(p, int64(64+id)) // all sizes differ
			// The group must remain usable after the failed round.
			if _, err := h.Read(p, 64); err != nil {
				t.Errorf("node %d: post-error read failed: %v", id, err)
			}
			finished++
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 4 {
		t.Fatalf("finished = %d", finished)
	}
	for id, err := range errs {
		if err != ErrCollectiveMismatch {
			t.Fatalf("node %d err = %v", id, err)
		}
	}
}

// TestInterleavedFilesKeepIndependentTokens: contention on one file must
// not slow another file's client.
func TestInterleavedFilesKeepIndependentTokens(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("hot", 1<<20)
	r.fs.CreateFile("cold", 1<<20)
	var coldLoop sim.Time
	for i := 0; i < 8; i++ {
		i := i
		r.k.Spawn("hot", func(p *sim.Proc) {
			h, _ := r.fs.Open(p, i, "hot", MUnix)
			for j := 0; j < 50; j++ {
				h.Read(p, 1024)
			}
			h.Close(p)
		})
	}
	r.k.Spawn("cold", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 9, "cold", MUnix)
		t0 := p.Now()
		for j := 0; j < 50; j++ {
			h.Read(p, 1024)
		}
		coldLoop = p.Now() - t0
		h.Close(p)
	})
	r.run(t)
	// The cold file's 50 buffered reads should cost ~50 x (token+hit),
	// far under a second, regardless of the hot file's token queue.
	if coldLoop > time.Second {
		t.Fatalf("cold-file reads slowed by hot-file contention: %v", coldLoop)
	}
}
