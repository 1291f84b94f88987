package cache

import (
	"math/rand"
	"testing"
	"time"

	"paragonio/internal/sim"
)

func TestLogConfigDefaults(t *testing.T) {
	cfg, err := LogConfig{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CapacityBytes != DefaultLogCapacity || cfg.SegmentBytes != DefaultLogSegment {
		t.Fatalf("size defaults not filled: %+v", cfg)
	}
	if cfg.AppendBW != DefaultLogAppendBW || cfg.AppendCost != DefaultLogAppendCost {
		t.Fatalf("append-cost defaults not filled: %+v", cfg)
	}
	if cfg.DrainBatch != DefaultLogDrainBatch || cfg.DrainDeadline != DefaultLogDrainDeadline {
		t.Fatalf("drain defaults not filled: %+v", cfg)
	}
}

func TestLogConfigValidation(t *testing.T) {
	bad := []LogConfig{
		{CapacityBytes: -1},
		{SegmentBytes: -1},
		{CapacityBytes: 1 << 20, SegmentBytes: 2 << 20}, // segment > capacity
		{AppendBW: -1},
		{AppendCost: -time.Second},
		{DrainBatch: -1},
		{DrainDeadline: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := cfg.WithDefaults(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// logRig is a one-kernel harness with an instrumented drainer: each
// batch completes after delay, and the rig records every batch served.
type logRig struct {
	k       *sim.Kernel
	lt      *LogTier
	delay   time.Duration
	batches [][]LogRecord
}

func newLogRig(t *testing.T, cfg LogConfig, delay time.Duration) *logRig {
	t.Helper()
	k := sim.NewKernel()
	lt, err := NewLogTier(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &logRig{k: k, lt: lt, delay: delay}
	lt.SetDrainer(func(batch []LogRecord, done func()) {
		cp := make([]LogRecord, len(batch))
		copy(cp, batch)
		r.batches = append(r.batches, cp)
		k.After(sim.Time(r.delay), done)
	})
	return r
}

// TestLogTierAppendSealDrain drives the happy path: appends fill and
// seal segments, the deadline drain writes everything through in append
// order, and the counters balance.
func TestLogTierAppendSealDrain(t *testing.T) {
	r := newLogRig(t, LogConfig{
		SegmentBytes:  64 << 10,
		CapacityBytes: 1 << 20,
		DrainDeadline: 2 * time.Millisecond,
		DrainBatch:    4,
	}, time.Millisecond)
	const recSize = 32 << 10
	r.k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			cost, stall := r.lt.Append(0, "log/a", int64(i)*recSize, recSize)
			if stall != 0 {
				t.Errorf("append %d hit backpressure below capacity", i)
			}
			if cost <= 0 {
				t.Errorf("append %d cost %v", i, cost)
			}
			p.Wait(sim.Time(cost))
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	s := r.lt.Stats()
	if s.Appends != 8 || s.AppendedBytes != 8*recSize {
		t.Errorf("appends = %d (%d bytes), want 8 (%d)", s.Appends, s.AppendedBytes, 8*recSize)
	}
	// Two 32 KB records fill one 64 KB segment; the 8th record's segment
	// seals on the fill boundary too.
	if s.SealedSegments != 4 {
		t.Errorf("sealed segments = %d, want 4", s.SealedSegments)
	}
	if s.DrainedRecords != 8 || s.PendingRecords != 0 || s.PendingBytes != 0 {
		t.Errorf("drain did not finish: %+v", s)
	}
	var seq uint64
	for _, b := range r.batches {
		for _, rec := range b {
			seq++
			if rec.Seq != seq {
				t.Fatalf("drain order broke: got seq %d at position %d", rec.Seq, seq)
			}
		}
	}
	if seq != 8 {
		t.Errorf("drained %d records through the sink, want 8", seq)
	}
	if got := r.lt.Cut(); got != 8 {
		t.Errorf("cut = %d, want 8 (everything drained)", got)
	}
}

// TestLogTierReadBarrier pins the read-your-writes stall: a read
// overlapping an undrained record blocks until the drain passes it, and
// a disjoint read does not block at all.
func TestLogTierReadBarrier(t *testing.T) {
	r := newLogRig(t, LogConfig{
		SegmentBytes:  64 << 10,
		CapacityBytes: 1 << 20,
		DrainDeadline: 50 * time.Millisecond,
		DrainBatch:    8,
	}, time.Millisecond)
	var stalled time.Duration
	r.k.Spawn("writer", func(p *sim.Proc) {
		cost, _ := r.lt.Append(0, "log/a", 0, 16<<10)
		p.Wait(sim.Time(cost))
		if seq := r.lt.ReadBarrier("log/b", 0, 16<<10); seq != 0 {
			t.Errorf("disjoint stream barrier = %d, want 0", seq)
		}
		if seq := r.lt.ReadBarrier("log/a", 32<<10, 16<<10); seq != 0 {
			t.Errorf("disjoint range barrier = %d, want 0", seq)
		}
		seq := r.lt.ReadBarrier("log/a", 8<<10, 16<<10)
		if seq != 1 {
			t.Fatalf("overlapping barrier = %d, want 1", seq)
		}
		stalled = r.lt.Wait(p, seq, true)
		if got := r.lt.ReadBarrier("log/a", 8<<10, 16<<10); got != 0 {
			t.Errorf("barrier after drain = %d, want 0", got)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if stalled <= 0 {
		t.Error("read barrier did not block")
	}
	s := r.lt.Stats()
	if s.ReadBackStalls != 1 || s.AppendStalls != 0 {
		t.Errorf("stall counters: %+v", s)
	}
	if s.StallWait != stalled {
		t.Errorf("StallWait = %v, want %v", s.StallWait, stalled)
	}
}

// TestLogTierBackpressure pins the capacity stall: appends past
// CapacityBytes return the head sequence to wait for, and the writer is
// blocked until the drain frees enough of the backlog.
func TestLogTierBackpressure(t *testing.T) {
	r := newLogRig(t, LogConfig{
		SegmentBytes:  64 << 10,
		CapacityBytes: 64 << 10,
		DrainDeadline: 50 * time.Millisecond,
		DrainBatch:    1,
	}, time.Millisecond)
	var stalls int
	r.k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			cost, stall := r.lt.Append(0, "log/a", int64(i)*32<<10, 32<<10)
			p.Wait(sim.Time(cost))
			if stall != 0 {
				stalls++
				if d := r.lt.Wait(p, stall, false); d <= 0 {
					t.Errorf("append %d: backpressure wait returned %v", i, d)
				}
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if stalls == 0 {
		t.Fatal("no append hit backpressure past capacity")
	}
	s := r.lt.Stats()
	if s.AppendStalls != uint64(stalls) {
		t.Errorf("AppendStalls = %d, want %d", s.AppendStalls, stalls)
	}
	if s.MaxPendingBytes <= 64<<10 {
		t.Errorf("MaxPendingBytes = %d never exceeded capacity", s.MaxPendingBytes)
	}
	if s.DrainedRecords != 4 {
		t.Errorf("DrainedRecords = %d, want 4", s.DrainedRecords)
	}
}

// logShadow rebuilds the commit protocol independently from observer
// events: a record is committed when a LogDrain names it or its
// (node, segment) seals. The shadow never reads LogTier state.
type logShadow struct {
	appended  []LogRecord
	committed map[uint64]bool
	bySegment map[[2]uint64][]uint64 // (node, segment) -> seqs
	crashed   bool
}

func newLogShadow() *logShadow {
	return &logShadow{
		committed: make(map[uint64]bool),
		bySegment: make(map[[2]uint64][]uint64),
	}
}

func (s *logShadow) observe(op LogOp) {
	switch op.Kind {
	case LogAppend:
		s.appended = append(s.appended, op.Record)
		k := [2]uint64{uint64(op.Record.Node), op.Record.Segment}
		s.bySegment[k] = append(s.bySegment[k], op.Record.Seq)
	case LogSeal:
		for _, seq := range s.bySegment[[2]uint64{uint64(op.Node), op.Segment}] {
			s.committed[seq] = true
		}
	case LogDrain:
		for _, seq := range op.Seqs {
			s.committed[seq] = true
		}
	case LogCrash:
		s.crashed = true
	}
}

// cut is the oracle: the maximal prefix of the append order in which
// every record is committed.
func (s *logShadow) cut() []LogRecord {
	out := []LogRecord{}
	for _, r := range s.appended {
		if !s.committed[r.Seq] {
			break
		}
		out = append(out, r)
	}
	return out
}

// TestLogTierReplayConsistentCut is the randomized crash-replay
// property test: writers on several nodes append records of random
// sizes while drains complete after random delays; the tier crashes at
// a random instant (sometimes mid-drain, losing the in-flight batch);
// and Replay must equal the independent oracle's consistent cut —
// every committed record, in exact append order, nothing else.
func TestLogTierReplayConsistentCut(t *testing.T) {
	sawPartial := false
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		lt, err := NewLogTier(k, LogConfig{
			SegmentBytes:  64 << 10,
			CapacityBytes: 256 << 10,
			DrainDeadline: 2 * time.Millisecond,
			DrainBatch:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		shadow := newLogShadow()
		lt.SetObserver(shadow.observe)
		// Drain delays are drawn up front so the drainer itself stays
		// deterministic in event order.
		lt.SetDrainer(func(batch []LogRecord, done func()) {
			k.After(sim.Time(time.Duration(1+rng.Intn(4000))*time.Microsecond), done)
		})
		crashed := false
		k.After(sim.Time(time.Duration(1+rng.Intn(30))*time.Millisecond), func() {
			crashed = true
			lt.Crash()
		})
		for node := 0; node < 3; node++ {
			node := node
			k.Spawn("writer", func(p *sim.Proc) {
				var off int64
				for i := 0; i < 30 && !crashed; i++ {
					size := int64(4+rng.Intn(44)) << 10
					cost, stall := lt.Append(node, "log/stream", off, size)
					off += size
					p.Wait(sim.Time(cost))
					if stall != 0 {
						lt.Wait(p, stall, false)
					}
					p.Wait(sim.Time(time.Duration(rng.Intn(500)) * time.Microsecond))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !shadow.crashed {
			t.Fatalf("seed %d: crash event never observed", seed)
		}
		got := lt.Replay()
		want := shadow.cut()
		if len(got) != len(want) {
			t.Fatalf("seed %d: replay %d records, oracle cut %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: replay[%d] = %+v, oracle %+v", seed, i, got[i], want[i])
			}
			if got[i].Seq != uint64(i)+1 {
				t.Fatalf("seed %d: replay[%d].Seq = %d, not append order", seed, i, got[i].Seq)
			}
		}
		if len(got) > 0 && len(got) < len(shadow.appended) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("no seed produced a partial cut — the crash never interrupted the log")
	}
}
