package cache

// The log tier is the third rung of the what-if storage hierarchy: a
// per-compute-node log-structured write buffer (the ParaLog / burst-
// buffer design the checkpoint literature converged on). Writes append
// to the node's log at memory speed and are acknowledged immediately; a
// background drain walks the global append order and writes the records
// to the PFS sequentially, scheduled on the tier's own armed-timer queue
// (a timers value, the machinery the I/O-node cache's deadline flusher
// also uses). The paper's machine had nothing like it — the tier exists
// to ask what one would have bought the checkpoint-dominated phases.
//
// Determinism follows the client tier's pattern: LogTier state is
// mutated only from process context or kernel callbacks — appends by the
// writing process, drain timers via Kernel.After, drain completions
// through the PFS fan-out's continuations — all on the kernel's single
// dispatch loop, so log-tier runs are bit-reproducible.
//
// Two stall paths keep the model honest. A read overlapping an
// undrained record blocks until the drain catches up through it (the
// consistent read-your-writes barrier) — which is exactly why a
// RAW-resident restart stream loses to the block cache, whose dirty
// blocks serve reads instantly. And when undrained bytes exceed
// CapacityBytes, the appender blocks until the head of the log drains
// (backpressure), so the tier cannot absorb an unbounded burst for
// free.

import (
	"fmt"
	"time"

	"paragonio/internal/sim"
)

// Log-tier defaults, re-exported for ladder builders and docs.
const (
	// DefaultLogCapacity bounds undrained bytes per machine before
	// appends feel backpressure.
	DefaultLogCapacity int64 = 8 << 20
	// DefaultLogDrainBatch is how many records one drain pass writes.
	DefaultLogDrainBatch = 8
	// DefaultLogDrainDeadline bounds how long a record sits undrained
	// before a background pass starts (the flush-deadline analog).
	DefaultLogDrainDeadline = 50 * time.Millisecond
)

// The append price: a fixed software cost per record plus a memory-speed
// copy at 5x the block cache's copy bandwidth — the point of a host-side
// log.
const (
	logAppendCost         = 5 * time.Microsecond
	logAppendBW   float64 = 400e6 // bytes/sec
)

// LogConfig configures the per-compute-node log tier.
type LogConfig struct {
	// CapacityBytes bounds the undrained backlog; appends beyond it
	// block until the head of the log drains (default 8 MB).
	CapacityBytes int64
	// DrainBatch is the number of records one background drain pass
	// writes to the PFS (default 8).
	DrainBatch int
	// DrainDeadline bounds how long a record may sit undrained before a
	// drain pass starts (default 50ms).
	DrainDeadline time.Duration
}

// WithDefaults fills zero fields with the documented defaults and
// validates the result.
func (c LogConfig) WithDefaults() (LogConfig, error) {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = DefaultLogCapacity
	}
	if c.DrainBatch == 0 {
		c.DrainBatch = DefaultLogDrainBatch
	}
	if c.DrainDeadline == 0 {
		c.DrainDeadline = DefaultLogDrainDeadline
	}
	return c, c.Validate()
}

// Validate checks a fully defaulted configuration.
func (c LogConfig) Validate() error {
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("cache: log tier CapacityBytes = %d", c.CapacityBytes)
	}
	if c.DrainBatch <= 0 {
		return fmt.Errorf("cache: log tier DrainBatch = %d", c.DrainBatch)
	}
	if c.DrainDeadline <= 0 {
		return fmt.Errorf("cache: log tier DrainDeadline = %v", c.DrainDeadline)
	}
	return nil
}

// LogStats aggregates the tier's counters across all compute nodes.
type LogStats struct {
	Appends       uint64 // records appended
	AppendedBytes int64  // payload bytes absorbed at memory speed

	Drains         uint64 // background drain passes started
	DrainedRecords uint64 // records written through to the PFS
	DrainedBytes   int64  // bytes written through to the PFS

	ReadBackStalls uint64 // reads that blocked on an undrained record
	AppendStalls   uint64 // appends that blocked on capacity backpressure
	// StallWait is the summed time processes spent blocked on the drain
	// (read barriers plus backpressure) — the tier's honest price.
	StallWait time.Duration

	PendingRecords  int   // undrained records right now
	PendingBytes    int64 // undrained bytes right now
	MaxPendingBytes int64 // undrained-bytes high-water mark
	Nodes           int   // compute nodes that appended to the log
}

// LogRecord is one appended write, as the drain sees it. Seq is the
// global append sequence (1-based).
type LogRecord struct {
	Seq    uint64
	Node   int
	Stream int32 // the file's pfs id
	Off    int64
	Size   int64
}

// logRecord is the tier's internal record state.
type logRecord struct {
	LogRecord
	deadline sim.Time // append instant + DrainDeadline
}

// logWaiter is a process blocked until the drain watermark passes seq.
type logWaiter struct {
	seq   uint64
	p     *sim.Proc
	start sim.Time
}

// LogTier is the per-compute-node log-structured write buffer. All
// methods must be called from process context or kernel callbacks; see
// the package comment for the ownership argument.
type LogTier struct {
	k   *sim.Kernel
	cfg LogConfig

	nodes     map[int]struct{} // nodes that appended
	pending   []logRecord      // undrained records, append order
	perStream []int            // undrained records per stream id
	pendBytes int64
	drained   uint64 // highest contiguously drained Seq

	drainq   timers // armed drain timers
	draining bool   // a drain pass is in flight

	waiters []logWaiter
	drainer func(batch []LogRecord, done func())

	stats LogStats
}

// NewLogTier creates the tier on the given kernel. cfg must already be
// valid (see LogConfig.WithDefaults). The caller must install a drainer
// (SetDrainer) before the first append drains.
func NewLogTier(k *sim.Kernel, cfg LogConfig) (*LogTier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lt := &LogTier{
		k:     k,
		cfg:   cfg,
		nodes: make(map[int]struct{}),
	}
	lt.drainq.bind(lt.startDrain)
	return lt, nil
}

// SetDrainer installs the drain sink: the PFS hands it batches of
// records to write through the data path, calling done when the whole
// batch has been served.
func (lt *LogTier) SetDrainer(fn func(batch []LogRecord, done func())) { lt.drainer = fn }

// Stats returns the tier's aggregate counters.
func (lt *LogTier) Stats() LogStats {
	s := lt.stats
	s.PendingRecords = len(lt.pending)
	s.PendingBytes = lt.pendBytes
	s.Nodes = len(lt.nodes)
	return s
}

// Append absorbs one write to stream sid (the file's pfs id) into the
// node's log: the record joins the global drain queue. It returns the
// append cost the writer must pay and, when the undrained backlog
// exceeds CapacityBytes, the sequence number the writer must Wait for
// before proceeding (0 = no backpressure).
func (lt *LogTier) Append(node int, sid int32, off, size int64) (time.Duration, uint64) {
	lt.nodes[node] = struct{}{}
	lt.stats.Appends++
	lt.pending = append(lt.pending, logRecord{
		LogRecord: LogRecord{
			Seq:    lt.stats.Appends,
			Node:   node,
			Stream: sid,
			Off:    off,
			Size:   size,
		},
		deadline: lt.k.Now() + sim.Time(lt.cfg.DrainDeadline),
	})
	for int(sid) >= len(lt.perStream) {
		lt.perStream = append(lt.perStream, 0)
	}
	lt.perStream[sid]++
	lt.pendBytes += size
	lt.stats.AppendedBytes += size
	if lt.pendBytes > lt.stats.MaxPendingBytes {
		lt.stats.MaxPendingBytes = lt.pendBytes
	}
	cost := logAppendCost +
		time.Duration(float64(size)/logAppendBW*float64(time.Second))
	var stall uint64
	if lt.pendBytes > lt.cfg.CapacityBytes {
		over := lt.pendBytes - lt.cfg.CapacityBytes
		var freed int64
		for _, r := range lt.pending {
			freed += r.Size
			stall = r.Seq
			if freed >= over {
				break
			}
		}
	}
	lt.scheduleDrain()
	return cost, stall
}

// ReadBarrier returns the highest undrained sequence number overlapping
// [off, off+size) of stream sid, or 0 when the range is fully drained —
// the read-your-writes barrier a reader must Wait for.
func (lt *LogTier) ReadBarrier(sid int32, off, size int64) uint64 {
	if uint(sid) >= uint(len(lt.perStream)) || lt.perStream[sid] == 0 || size <= 0 {
		return 0
	}
	var seq uint64
	for _, r := range lt.pending {
		if r.Stream == sid && r.Off < off+size && off < r.Off+r.Size {
			seq = r.Seq
		}
	}
	return seq
}

// Wait blocks p until the drain watermark reaches seq, arming an
// immediate drain pass. read selects which stall counter the wait is
// charged to (read barrier vs append backpressure). It returns the time
// p spent blocked.
func (lt *LogTier) Wait(p *sim.Proc, seq uint64, read bool) time.Duration {
	if seq == 0 || lt.drained >= seq {
		return 0
	}
	if read {
		lt.stats.ReadBackStalls++
	} else {
		lt.stats.AppendStalls++
	}
	start := lt.k.Now()
	lt.waiters = append(lt.waiters, logWaiter{seq: seq, p: p, start: start})
	lt.scheduleDrain()
	p.Suspend("cache: log-tier drain")
	return lt.k.Now() - start
}

// scheduleDrain arms the background drain on the tier's own timer
// queue: one pass is due at the head record's deadline, immediately
// under backpressure or with waiters blocked. An extra, earlier timer is
// armed only when no armed one fires soon enough, and a timer whose work
// an earlier pass already drained fires as a no-op.
func (lt *LogTier) scheduleDrain() {
	if lt.draining || len(lt.pending) == 0 || lt.drainer == nil {
		return
	}
	now := lt.k.Now()
	at := lt.pending[0].deadline
	if at < now || len(lt.waiters) > 0 || lt.pendBytes > lt.cfg.CapacityBytes {
		at = now
	}
	if lt.drainq.covers(at) {
		return // an armed timer already fires soon enough
	}
	lt.drainq.arm(lt.k, at)
}

// startDrain begins one pass over the head of the global append order.
func (lt *LogTier) startDrain() {
	if lt.draining || len(lt.pending) == 0 {
		return // stale timer: an earlier pass drained everything
	}
	n := lt.cfg.DrainBatch
	if n > len(lt.pending) {
		n = len(lt.pending)
	}
	batch := make([]LogRecord, n)
	for i := 0; i < n; i++ {
		batch[i] = lt.pending[i].LogRecord
	}
	lt.draining = true
	lt.stats.Drains++
	lt.drainer(batch, func() { lt.drainDone(n) })
}

// drainDone retires the pass's records, advances the watermark, wakes
// every waiter it satisfies, and re-arms the drain.
func (lt *LogTier) drainDone(n int) {
	lt.draining = false
	for _, r := range lt.pending[:n] {
		lt.drained = r.Seq
		lt.pendBytes -= r.Size
		lt.perStream[r.Stream]--
		lt.stats.DrainedRecords++
		lt.stats.DrainedBytes += r.Size
	}
	lt.pending = lt.pending[n:]
	// Wake satisfied waiters in arrival order (deterministic: arrival
	// order is itself an event-order artifact).
	kept := lt.waiters[:0]
	for _, w := range lt.waiters {
		if w.seq <= lt.drained {
			lt.stats.StallWait += time.Duration(lt.k.Now() - w.start)
			lt.k.Wake(w.p)
			continue
		}
		kept = append(kept, w)
	}
	lt.waiters = kept
	lt.scheduleDrain()
}
