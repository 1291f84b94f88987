package cache

import (
	"testing"
	"time"

	"paragonio/internal/disk"
	"paragonio/internal/sim"
)

const testBlock int64 = 64 * 1024

// rig is a one-I/O-node harness: a kernel, the node's FIFO resource, its
// array, and a cache in front.
type rig struct {
	k   *sim.Kernel
	res *sim.Resource
	arr *disk.Array
	c   *Cache
}

func newRig(t *testing.T, mut func(*Config)) *rig {
	t.Helper()
	k := sim.NewKernel()
	res := sim.NewResource(k, "ionode-0", 1)
	arr := disk.MustNewArray(disk.DefaultParams())
	cfg := Config{WriteBehind: true}
	if mut != nil {
		mut(&cfg)
	}
	full, err := cfg.WithDefaults(testBlock, disk.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(k, res, arr, full, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, res: res, arr: arr, c: c}
}

// do runs body as a client process holding the I/O-node resource for each
// access, then drives the kernel to completion (including trailing
// flushes).
func (r *rig) do(t *testing.T, body func(p *sim.Proc, access func(stream int32, off, size int64, write bool))) {
	t.Helper()
	r.k.Spawn("client", func(p *sim.Proc) {
		body(p, func(stream int32, off, size int64, write bool) {
			r.res.Acquire(p)
			p.Wait(r.c.Access(stream, off, size, write))
			r.res.Release(p)
		})
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.WithDefaults(testBlock, disk.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	frac := capacityFrac
	wantCap := int64(frac * 4.8 * float64(1<<30))
	if cfg.CapacityBytes != wantCap {
		t.Fatalf("CapacityBytes = %d, want %d (1/256 of the array)", cfg.CapacityBytes, wantCap)
	}
	if cfg.DirtyHighWater != int(wantCap/testBlock/2) {
		t.Fatalf("DirtyHighWater = %d, want half the block capacity", cfg.DirtyHighWater)
	}
	if cfg.FlushBatch <= 0 || cfg.IdleFlush <= 0 {
		t.Fatalf("missing defaults: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		block int64
		mut   func(*Config)
	}{
		{"negative block", -1, func(*Config) {}},
		{"tiny capacity", testBlock, func(c *Config) { c.CapacityBytes = testBlock }},
		{"negative read-ahead", testBlock, func(c *Config) { c.ReadAhead = -1 }},
		{"negative flush deadline", testBlock, func(c *Config) { c.FlushDeadline = -time.Millisecond }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{}
			tc.mut(&cfg)
			if _, err := cfg.WithDefaults(tc.block, disk.DefaultParams()); err == nil {
				t.Fatalf("WithDefaults accepted %+v with %d-byte blocks", cfg, tc.block)
			}
		})
	}
	// Zero-capacity disks cannot size the cache.
	d := disk.DefaultParams()
	d.CapacityGB = 0
	if _, err := (Config{}).WithDefaults(testBlock, d); err == nil {
		t.Fatal("WithDefaults accepted a zero-capacity array")
	}
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, nil)
	var miss, hit time.Duration
	r.do(t, func(p *sim.Proc, access func(int32, int64, int64, bool)) {
		r.res.Acquire(p)
		miss = r.c.Access(0, 0, 4096, false)
		hit = r.c.Access(0, 0, 4096, false)
		r.res.Release(p)
	})
	if hit >= miss {
		t.Fatalf("hit (%v) not cheaper than miss (%v)", hit, miss)
	}
	s := r.c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %g, want 0.5", got)
	}
}

func TestWriteBehindAcksAtCopyCost(t *testing.T) {
	r := newRig(t, nil)
	coldDisk := disk.MustNewArray(disk.DefaultParams()).Service(0, 0, testBlock)
	var ack time.Duration
	r.do(t, func(p *sim.Proc, access func(int32, int64, int64, bool)) {
		r.res.Acquire(p)
		ack = r.c.Access(0, 0, testBlock, true)
		r.res.Release(p)
	})
	if ack >= coldDisk/4 {
		t.Fatalf("write-behind ack %v not well under disk service %v", ack, coldDisk)
	}
	s := r.c.Stats()
	if s.WriteBehindBytes != testBlock {
		t.Fatalf("WriteBehindBytes = %d, want %d", s.WriteBehindBytes, testBlock)
	}
}

func TestFlusherDrainsAndTerminates(t *testing.T) {
	r := newRig(t, nil)
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		for i := int64(0); i < 20; i++ {
			access(0, i*testBlock, testBlock, true)
		}
	})
	// Kernel.Run returned: the flusher terminated on its own. All dirty
	// data must have reached the array.
	s := r.c.Stats()
	if s.Dirty != 0 {
		t.Fatalf("Dirty = %d after run end, want 0", s.Dirty)
	}
	if s.FlushedBlocks != 20 {
		t.Fatalf("FlushedBlocks = %d, want 20", s.FlushedBlocks)
	}
	if s.MaxDirty == 0 {
		t.Fatal("MaxDirty never rose above 0")
	}
	if as := r.arr.Stats(); as.BytesMoved != 20*testBlock {
		t.Fatalf("array saw %d bytes, want %d", as.BytesMoved, 20*testBlock)
	}
}

func TestReadOfDirtyBlockHitsCache(t *testing.T) {
	r := newRig(t, nil)
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		r.res.Acquire(p)
		r.c.Access(0, 0, testBlock, true)
		before := r.arr.Stats().Requests
		r.c.Access(0, 0, 4096, false)
		if after := r.arr.Stats().Requests; after != before {
			t.Errorf("read of a dirty block touched the array (%d -> %d requests)", before, after)
		}
		r.res.Release(p)
	})
	if s := r.c.Stats(); s.Hits == 0 {
		t.Fatalf("stats = %+v, want a hit for the dirty-block read", s)
	}
}

func TestLRUEvictionAndForcedFlushStall(t *testing.T) {
	// Four-block cache, write-behind on, flusher effectively disabled so
	// dirty blocks pile up and evictions must flush synchronously.
	r := newRig(t, func(c *Config) {
		c.CapacityBytes = 4 * testBlock
		c.DirtyHighWater = 100
		c.IdleFlush = time.Hour
	})
	var clean, stalled time.Duration
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		r.res.Acquire(p)
		for i := int64(0); i < 4; i++ {
			r.c.Access(0, i*testBlock, testBlock, true)
		}
		// Fifth distinct block: evicts the (dirty) LRU block 0.
		stalled = r.c.Access(0, 4*testBlock, testBlock, true)
		r.res.Release(p)
	})
	clean = time.Duration(float64(testBlock)/80e6*float64(time.Second)) + 30*time.Microsecond
	s := r.c.Stats()
	if s.ForcedFlushStalls == 0 {
		t.Fatalf("stats = %+v, want a forced-flush stall", s)
	}
	if s.Blocks > 4 {
		t.Fatalf("Blocks = %d exceeds capacity 4", s.Blocks)
	}
	if stalled <= clean {
		t.Fatalf("stalled write (%v) not slower than clean ack (%v)", stalled, clean)
	}
}

// TestDeadlinePolicyFlushesByAge contrasts the two flush policies on the
// same two-write program: below the high-water mark the deadline policy
// writes each block within FlushDeadline of its first dirtying (two
// single-block passes), while the high-water + idle policy drains both in
// one batch when the idle timer fires.
func TestDeadlinePolicyFlushesByAge(t *testing.T) {
	program := func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		access(0, 0, testBlock, true)
		p.Wait(3 * time.Millisecond)
		access(0, testBlock, testBlock, true)
	}

	idle := newRig(t, func(c *Config) {
		c.IdleFlush = 5 * time.Millisecond
		c.DirtyHighWater = 100
	})
	idle.do(t, program)
	if s := idle.c.Stats(); s.Flushes != 1 || s.FlushedBlocks != 2 || s.DeadlineFlushes != 0 {
		t.Fatalf("high-water+idle stats = %+v, want one 2-block pass and no deadline passes", s)
	}

	dl := newRig(t, func(c *Config) {
		c.IdleFlush = time.Hour // idle clock must not fire under the deadline policy
		c.FlushDeadline = 5 * time.Millisecond
		c.DirtyHighWater = 100
	})
	dl.do(t, program)
	if s := dl.c.Stats(); s.Flushes != 2 || s.FlushedBlocks != 2 || s.DeadlineFlushes != 2 {
		t.Fatalf("deadline stats = %+v, want two single-block deadline passes", s)
	}
	if s := dl.c.Stats(); s.Dirty != 0 {
		t.Fatalf("Dirty = %d after run end, want 0", s.Dirty)
	}
}

// TestDeadlineHighWaterStillDrains pins that a high-water breach drains a
// full batch immediately even when the armed deadline is far away.
func TestDeadlineHighWaterStillDrains(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.FlushDeadline = time.Hour
		c.IdleFlush = time.Hour
		c.DirtyHighWater = 2
	})
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		for i := int64(0); i < 4; i++ {
			access(0, i*testBlock, testBlock, true)
		}
		// Well before the 1 h deadline, high-water pressure must already
		// have drained everything.
		p.Wait(time.Second)
		if d := r.c.Stats().Dirty; d != 0 {
			t.Errorf("Dirty = %d one second in, want 0 (high-water breach waited for the deadline)", d)
		}
	})
	s := r.c.Stats()
	if s.Dirty != 0 || s.FlushedBlocks != 4 {
		t.Fatalf("stats = %+v, want all 4 blocks drained by high-water pressure", s)
	}
}

// TestDeadlineHoldsAfterEvictedBlockIsRedirtied pins the dirty list's
// order against eviction: a dirty block evicted by a forced flush and then
// written again joins the list's tail at its new clean → dirty
// transition, so it cannot hold back an older dirty block's deadline.
func TestDeadlineHoldsAfterEvictedBlockIsRedirtied(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.CapacityBytes = 3 * testBlock
		c.DirtyHighWater = 100
		c.IdleFlush = time.Hour
		c.FlushDeadline = time.Second
	})
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		for i := int64(0); i < 3; i++ {
			access(0, i*testBlock, testBlock, true)
		}
		access(0, 0, testBlock, false)          // block 1 becomes the LRU block
		access(0, 3*testBlock, testBlock, true) // evicts dirty block 1 with a forced flush
		if at := r.c.blocks[packBlock(0, 3)].dirtyAt; at > 30*time.Millisecond {
			t.Fatalf("block 3 dirtied at %v, want within 30 ms", at)
		}
		p.Wait(500*time.Millisecond - p.Now())
		access(0, 1*testBlock, testBlock, true) // evicts dirty block 2; block 1 is dirty again
		for _, want := range []struct {
			at    time.Duration
			dirty int
		}{{1100 * time.Millisecond, 1}, {1400 * time.Millisecond, 1}, {1600 * time.Millisecond, 0}} {
			p.Wait(want.at - p.Now())
			if d := r.c.Stats().Dirty; d != want.dirty {
				t.Errorf("Dirty = %d at %v, want %d", d, want.at, want.dirty)
			}
		}
	})
	if s := r.c.Stats(); s.ForcedFlushStalls != 2 || s.Dirty != 0 {
		t.Fatalf("stats = %+v, want 2 forced-flush stalls and nothing dirty at the end", s)
	}
}

func TestReadAheadSequentialStream(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ReadAhead = 4 })
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		for i := int64(0); i < 8; i++ {
			access(0, i*testBlock, 4096, false)
			p.Wait(100 * time.Millisecond) // think time lets prefetches land
		}
	})
	s := r.c.Stats()
	if s.ReadAheadIssued == 0 {
		t.Fatalf("stats = %+v, want prefetches issued", s)
	}
	if s.ReadAheadUsed == 0 {
		t.Fatalf("stats = %+v, want prefetched blocks demanded", s)
	}
	if acc := s.ReadAheadAccuracy(); acc < 0.5 {
		t.Fatalf("ReadAheadAccuracy = %g, want >= 0.5 on a pure sequential stream", acc)
	}
	// Blocks 2..7 should have been cache hits (prefetched before demand).
	if s.Hits < 4 {
		t.Fatalf("Hits = %d, want most of the stream served from read-ahead", s.Hits)
	}
}

func TestReadAheadStrided(t *testing.T) {
	// One file's stripes land on an I/O node 16 blocks apart — the
	// detector must follow that constant stride too.
	r := newRig(t, func(c *Config) { c.ReadAhead = 2 })
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		for i := int64(0); i < 6; i++ {
			access(0, i*16*testBlock, 4096, false)
			p.Wait(100 * time.Millisecond)
		}
	})
	if s := r.c.Stats(); s.ReadAheadUsed == 0 {
		t.Fatalf("stats = %+v, want strided prefetches demanded", s)
	}
}

func TestReadAheadCancelsOnStrideBreak(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ReadAhead = 4 })
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		r.res.Acquire(p)
		// Establish a stride-1 pattern; the prefetch batch queues behind
		// our own hold...
		r.c.Access(0, 0, 4096, false)
		r.c.Access(0, testBlock, 4096, false)
		// ...then break the pattern before the batch is granted.
		r.c.Access(0, 0, 4096, false)
		r.res.Release(p)
	})
	s := r.c.Stats()
	if s.ReadAheadCancelled == 0 {
		t.Fatalf("stats = %+v, want the queued prefetch batch cancelled", s)
	}
	if s.ReadAheadIssued != 0 {
		t.Fatalf("stats = %+v, want no prefetched blocks after cancellation", s)
	}
}

func TestWriteThroughWithoutWriteBehind(t *testing.T) {
	r := newRig(t, func(c *Config) { c.WriteBehind = false })
	r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
		access(0, 0, testBlock, true)
	})
	s := r.c.Stats()
	if s.Dirty != 0 || s.WriteBehindBytes != 0 {
		t.Fatalf("write-through dirtied the cache: %+v", s)
	}
	if as := r.arr.Stats(); as.BytesMoved != testBlock {
		t.Fatalf("array saw %d bytes, want synchronous %d", as.BytesMoved, testBlock)
	}
}

// TestDeterministic pins bit-reproducibility: the same access program
// yields identical virtual end times and statistics on every run.
func TestDeterministic(t *testing.T) {
	run := func() (time.Duration, Stats) {
		const chk, rst = 0, 1
		r := newRig(t, func(c *Config) { c.ReadAhead = 4; c.CapacityBytes = 8 * testBlock })
		r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
			for i := int64(0); i < 30; i++ {
				access(chk, i*testBlock, testBlock, true)
			}
			for i := int64(0); i < 30; i++ {
				access(rst, i*testBlock, 4096, false)
				p.Wait(time.Millisecond)
			}
		})
		return r.k.Now(), r.c.Stats()
	}
	end1, s1 := run()
	end2, s2 := run()
	if end1 != end2 || s1 != s2 {
		t.Fatalf("nondeterministic cache:\n%v %+v\n%v %+v", end1, s1, end2, s2)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, MaxDirty: 3, ReadAheadIssued: 4}
	b := Stats{Hits: 10, Misses: 20, MaxDirty: 1, ReadAheadIssued: 40}
	a.Add(b)
	if a.Hits != 11 || a.Misses != 22 || a.ReadAheadIssued != 44 {
		t.Fatalf("Add = %+v", a)
	}
	if a.MaxDirty != 3 {
		t.Fatalf("MaxDirty = %d, want max(3,1)", a.MaxDirty)
	}
}

// BenchmarkIONodeCacheHit reads one resident block.
func BenchmarkIONodeCacheHit(b *testing.B) {
	c := newBenchCache(b, 16)
	c.Access(0, 0, testBlock, false)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0, 0, 4096, false)
	}
}

// BenchmarkIONodeCacheMiss cycles reads over a working set twice the
// cache's capacity, split across 2 streams: every op is a miss, an array
// fill and an LRU eviction.
func BenchmarkIONodeCacheMiss(b *testing.B) {
	const capBlocks = 256
	c := newBenchCache(b, capBlocks)
	streams := [2]int32{0, 1}
	for i := 0; i < 2*capBlocks; i++ {
		c.Access(streams[i%2], int64(i/2%capBlocks)*testBlock, testBlock, false)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(streams[i%2], int64(i/2%capBlocks)*testBlock, 4096, false)
	}
	if c.Stats().Hits != 0 {
		b.Fatalf("churn hit: %+v", c.Stats())
	}
}

// newBenchCache builds a read-only cache of capBlocks blocks with no
// read-ahead: reads neither dirty blocks nor schedule prefetches, so
// Access can be driven outside process context.
func newBenchCache(b *testing.B, capBlocks int64) *Cache {
	b.Helper()
	k := sim.NewKernel()
	cfg, err := Config{CapacityBytes: capBlocks * testBlock}.WithDefaults(testBlock, disk.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(k, sim.NewResource(k, "ionode-0", 1), disk.MustNewArray(disk.DefaultParams()), cfg, testBlock)
	if err != nil {
		b.Fatal(err)
	}
	return c
}
