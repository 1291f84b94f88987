package cache

import (
	"fmt"
	"testing"
	"time"

	"paragonio/internal/sim"
)

func TestLogConfigDefaults(t *testing.T) {
	cfg, err := LogConfig{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CapacityBytes != DefaultLogCapacity {
		t.Fatalf("capacity default not filled: %+v", cfg)
	}
	if cfg.DrainBatch != DefaultLogDrainBatch || cfg.DrainDeadline != DefaultLogDrainDeadline {
		t.Fatalf("drain defaults not filled: %+v", cfg)
	}
}

func TestLogConfigValidation(t *testing.T) {
	bad := []LogConfig{
		{CapacityBytes: -1},
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

// The two streams the log-tier tests write and read.
const logA, logB int32 = 0, 1

func newLogRig(t *testing.T, cfg LogConfig, delay time.Duration) *logRig {
	t.Helper()
	cfg, err := cfg.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
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

// TestLogTierAppendDrain drives the happy path: two nodes append at
// memory-speed cost, the deadline drain writes everything through in
// append order, and the counters balance.
func TestLogTierAppendDrain(t *testing.T) {
	r := newLogRig(t, LogConfig{
		CapacityBytes: 1 << 20,
		DrainDeadline: 2 * time.Millisecond,
		DrainBatch:    4,
	}, time.Millisecond)
	const recSize = 32 << 10
	r.k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			cost, stall := r.lt.Append(i%2, logA, int64(i)*recSize, recSize)
			if stall != 0 {
				t.Errorf("append %d hit backpressure below capacity", i)
			}
			// 5µs per record plus 32 KB at 400 MB/s.
			if want := 5*time.Microsecond + 81920*time.Nanosecond; cost != want {
				t.Errorf("append %d cost %v, want %v", i, cost, want)
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
	if s.Nodes != 2 {
		t.Errorf("nodes = %d, want 2", s.Nodes)
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
}

// TestLogTierReadBarrier pins the read-your-writes stall: a read
// overlapping an undrained record blocks until the drain passes it, and
// a disjoint read does not block at all.
func TestLogTierReadBarrier(t *testing.T) {
	r := newLogRig(t, LogConfig{
		CapacityBytes: 1 << 20,
		DrainDeadline: 50 * time.Millisecond,
		DrainBatch:    8,
	}, time.Millisecond)
	var stalled time.Duration
	r.k.Spawn("writer", func(p *sim.Proc) {
		cost, _ := r.lt.Append(0, logA, 0, 16<<10)
		p.Wait(sim.Time(cost))
		if seq := r.lt.ReadBarrier(logB, 0, 16<<10); seq != 0 {
			t.Errorf("disjoint stream barrier = %d, want 0", seq)
		}
		if seq := r.lt.ReadBarrier(logA, 32<<10, 16<<10); seq != 0 {
			t.Errorf("disjoint range barrier = %d, want 0", seq)
		}
		seq := r.lt.ReadBarrier(logA, 8<<10, 16<<10)
		if seq != 1 {
			t.Fatalf("overlapping barrier = %d, want 1", seq)
		}
		stalled = r.lt.Wait(p, seq, true)
		if got := r.lt.ReadBarrier(logA, 8<<10, 16<<10); got != 0 {
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

// TestLogTierWokenWaiterBlocksAgain has a reader that the drain wakes
// block on the log again at once. The drain's pass over its waiters
// must not lose the new wait: both waits return, one drain pass each.
func TestLogTierWokenWaiterBlocksAgain(t *testing.T) {
	r := newLogRig(t, LogConfig{
		CapacityBytes: 1 << 20,
		DrainBatch:    1,
		DrainDeadline: time.Millisecond,
	}, time.Millisecond)
	var waited []uint64
	r.k.Spawn("reader", func(p *sim.Proc) {
		r.lt.Append(0, logA, 0, 4<<10)
		r.lt.Append(0, logA, 4<<10, 4<<10)
		for seq := uint64(1); seq <= 2; seq++ {
			r.lt.Wait(p, seq, true)
			waited = append(waited, seq)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(waited) != "[1 2]" {
		t.Errorf("waits returned for %v, want [1 2]", waited)
	}
	if s := r.lt.Stats(); s.ReadBackStalls != 2 || s.DrainedRecords != 2 {
		t.Errorf("stats = %+v, want 2 read stalls and 2 drained records", s)
	}
}

// TestLogTierBackpressure pins the capacity stall: appends past
// CapacityBytes return the head sequence to wait for, and the writer is
// blocked until the drain frees enough of the backlog.
func TestLogTierBackpressure(t *testing.T) {
	r := newLogRig(t, LogConfig{
		CapacityBytes: 64 << 10,
		DrainDeadline: 50 * time.Millisecond,
		DrainBatch:    1,
	}, time.Millisecond)
	var stalls int
	r.k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			cost, stall := r.lt.Append(0, logA, int64(i)*32<<10, 32<<10)
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

// BenchmarkLogTierAppendDrain is the log tier's own loop: one writer
// appends 4 KB records over three streams from four nodes, and a drain
// sink that takes 100µs a batch keeps up with a 1 ms drain deadline, so
// each op is one append plus an eighth of a drain pass (timer, batch,
// completion) and no append feels backpressure.
func BenchmarkLogTierAppendDrain(b *testing.B) {
	const rec = 4 << 10
	k := sim.NewKernel()
	cfg, err := LogConfig{DrainDeadline: time.Millisecond}.WithDefaults()
	if err != nil {
		b.Fatal(err)
	}
	lt, err := NewLogTier(k, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lt.SetDrainer(func(_ []LogRecord, done func()) { k.After(100*time.Microsecond, done) })
	k.Spawn("writer", func(p *sim.Proc) {
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cost, stall := lt.Append(i%4, int32(i%3), int64(i)*rec, rec)
			lt.Wait(p, stall, false)
			p.Wait(cost)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if s := lt.Stats(); s.DrainedRecords != uint64(b.N) || s.AppendStalls != 0 {
		b.Fatalf("drained %d of %d records with %d append stalls", s.DrainedRecords, b.N, s.AppendStalls)
	}
}
