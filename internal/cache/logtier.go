package cache

// The log tier is the third rung of the what-if storage hierarchy: a
// per-compute-node log-structured write buffer (the ParaLog / burst-
// buffer design the checkpoint literature converged on). Writes append
// to the node's open segment at memory speed and are acknowledged
// immediately; a background drain walks the global append order and
// writes the records to the PFS sequentially, scheduled with the same
// armed-timer deadline machinery the I/O-node cache's flusher uses. The
// paper's machine had nothing like it — the tier exists to ask what one
// would have bought the checkpoint-dominated phases.
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
//
// Crash semantics: a record is committed once its segment seals (or
// once it drains); Replay returns the maximal prefix of the global
// append order in which every record is committed — the consistent cut
// across the per-node logs. Records in open segments at the crash, and
// any in-flight drain batch, are lost.

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
	// DefaultLogSegment is the append-only segment size; a full segment
	// seals, committing its records for replay.
	DefaultLogSegment int64 = 1 << 20
	// DefaultLogAppendBW is the memory-speed append bandwidth
	// (bytes/sec) — 5x the block cache's copy bandwidth, the point of a
	// host-side log.
	DefaultLogAppendBW float64 = 400e6
	// DefaultLogAppendCost is the fixed software cost per appended
	// record.
	DefaultLogAppendCost = 5 * time.Microsecond
	// DefaultLogDrainBatch is how many records one drain pass writes.
	DefaultLogDrainBatch = 8
	// DefaultLogDrainDeadline bounds how long a record sits undrained
	// before a background pass starts (the flush-deadline analog).
	DefaultLogDrainDeadline = 50 * time.Millisecond
)

// LogConfig configures the per-compute-node log tier.
type LogConfig struct {
	// CapacityBytes bounds the undrained backlog; appends beyond it
	// block until the head of the log drains (default 8 MB).
	CapacityBytes int64
	// SegmentBytes is the append-only segment size; a record that does
	// not fit seals the open segment first (default 1 MB).
	SegmentBytes int64
	// AppendBW is the memory-copy bandwidth appends are priced at, in
	// bytes/sec (default 400e6).
	AppendBW float64
	// AppendCost is the fixed per-record software cost (default 5µs).
	AppendCost time.Duration
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
	if c.SegmentBytes == 0 {
		c.SegmentBytes = DefaultLogSegment
	}
	if c.AppendBW == 0 {
		c.AppendBW = DefaultLogAppendBW
	}
	if c.AppendCost == 0 {
		c.AppendCost = DefaultLogAppendCost
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
	if c.SegmentBytes <= 0 {
		return fmt.Errorf("cache: log tier SegmentBytes = %d", c.SegmentBytes)
	}
	if c.SegmentBytes > c.CapacityBytes {
		return fmt.Errorf("cache: log tier SegmentBytes %d exceeds CapacityBytes %d",
			c.SegmentBytes, c.CapacityBytes)
	}
	if !(c.AppendBW > 0) {
		return fmt.Errorf("cache: log tier AppendBW = %g", c.AppendBW)
	}
	if c.AppendCost < 0 {
		return fmt.Errorf("cache: log tier AppendCost = %v", c.AppendCost)
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

	SealedSegments uint64 // segments sealed (their records committed)

	Drains         uint64 // background drain passes started
	DrainedRecords uint64 // records written through to the PFS
	DrainedBytes   int64  // bytes written through to the PFS

	ReadBackStalls uint64 // reads that blocked on an undrained record
	AppendStalls   uint64 // appends that blocked on capacity backpressure
	// StallWait is the summed time processes spent blocked on the drain
	// (read barriers plus backpressure) — the tier's honest price.
	StallWait time.Duration

	Replayed uint64 // records returned by Replay after a crash

	PendingRecords  int   // undrained records right now
	PendingBytes    int64 // undrained bytes right now
	MaxPendingBytes int64 // undrained-bytes high-water mark
	Nodes           int   // compute nodes with an instantiated log
}

// LogRecord is one appended write, as seen by drains, Replay, and the
// observer. Seq is the global append sequence (1-based); Segment is the
// per-node segment index the record landed in.
type LogRecord struct {
	Seq     uint64
	Node    int
	Stream  string
	Off     int64
	Size    int64
	Segment uint64
}

// logRecord is the tier's internal record state.
type logRecord struct {
	LogRecord
	deadline sim.Time // append instant + DrainDeadline
	sealed   bool     // segment sealed (committed for replay)
	drained  bool     // written through to the PFS
}

// LogOpKind identifies one observer event.
type LogOpKind int

const (
	// LogAppend: a record was appended (Op.Record is set).
	LogAppend LogOpKind = iota
	// LogSeal: a node sealed its open segment (Op.Node, Op.Segment).
	LogSeal
	// LogDrain: a drain pass committed records (Op.Seqs, ascending).
	LogDrain
	// LogCrash: the tier crashed; no further state changes.
	LogCrash
)

// LogOp is one observer event. Tests subscribe via SetObserver to build
// an independent shadow of the commit protocol.
type LogOp struct {
	Kind    LogOpKind
	Record  LogRecord // LogAppend
	Node    int       // LogSeal
	Segment uint64    // LogSeal
	Seqs    []uint64  // LogDrain
}

// logNode is one compute node's segment state.
type logNode struct {
	idx     int
	segment uint64       // open segment index
	segFill int64        // bytes in the open segment
	open    []*logRecord // records in the open segment
}

// logWaiter is a process blocked until the drain watermark passes seq.
type logWaiter struct {
	seq   uint64
	p     *sim.Proc
	start sim.Time
	read  bool // read barrier (vs append backpressure)
}

// LogTier is the per-compute-node log-structured write buffer. All
// methods must be called from process context or kernel callbacks; see
// the package comment for the ownership argument.
type LogTier struct {
	k   *sim.Kernel
	cfg LogConfig

	nodes     map[int]*logNode
	records   []*logRecord // every record, append order (Seq = index+1)
	pending   []*logRecord // undrained records, append order
	perStream map[string]int
	pendBytes int64
	drained   uint64 // highest contiguously drained Seq

	drainq   []sim.Time // armed drain timers, ascending
	draining bool       // a drain pass is in flight
	crashed  bool

	waiters  []logWaiter
	drainer  func(batch []LogRecord, done func())
	observer func(LogOp)

	stats LogStats
}

// NewLogTier creates the tier on the given kernel. The caller must
// install a drainer (SetDrainer) before the first append drains.
func NewLogTier(k *sim.Kernel, cfg LogConfig) (*LogTier, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	return &LogTier{
		k:         k,
		cfg:       cfg,
		nodes:     make(map[int]*logNode),
		perStream: make(map[string]int),
	}, nil
}

// Config returns the tier's (defaulted) configuration.
func (lt *LogTier) Config() LogConfig { return lt.cfg }

// SetDrainer installs the drain sink: the PFS hands it batches of
// records to write through the data path, calling done when the whole
// batch has been served.
func (lt *LogTier) SetDrainer(fn func(batch []LogRecord, done func())) { lt.drainer = fn }

// SetObserver installs an observer receiving one LogOp per state
// change, for tests that shadow the commit protocol.
func (lt *LogTier) SetObserver(fn func(LogOp)) { lt.observer = fn }

// Stats returns the tier's aggregate counters.
func (lt *LogTier) Stats() LogStats {
	s := lt.stats
	s.PendingRecords = len(lt.pending)
	s.PendingBytes = lt.pendBytes
	s.Nodes = len(lt.nodes)
	return s
}

func (lt *LogTier) nodeFor(node int) *logNode {
	n, ok := lt.nodes[node]
	if !ok {
		n = &logNode{idx: node}
		lt.nodes[node] = n
	}
	return n
}

// seal closes a node's open segment, committing its records for replay.
func (lt *LogTier) seal(n *logNode) {
	if len(n.open) == 0 {
		return
	}
	for _, r := range n.open {
		r.sealed = true
	}
	n.open = n.open[:0]
	n.segFill = 0
	lt.stats.SealedSegments++
	if lt.observer != nil {
		lt.observer(LogOp{Kind: LogSeal, Node: n.idx, Segment: n.segment})
	}
	n.segment++
}

// Append absorbs one write into the node's log: the record lands in the
// open segment (sealing it first when full) and joins the global drain
// queue. It returns the append cost the writer must pay and, when the
// undrained backlog exceeds CapacityBytes, the sequence number the
// writer must Wait for before proceeding (0 = no backpressure).
func (lt *LogTier) Append(node int, stream string, off, size int64) (time.Duration, uint64) {
	n := lt.nodeFor(node)
	if n.segFill > 0 && n.segFill+size > lt.cfg.SegmentBytes {
		lt.seal(n)
	}
	rec := &logRecord{
		LogRecord: LogRecord{
			Seq:     uint64(len(lt.records)) + 1,
			Node:    node,
			Stream:  stream,
			Off:     off,
			Size:    size,
			Segment: n.segment,
		},
		deadline: lt.k.Now() + sim.Time(lt.cfg.DrainDeadline),
	}
	lt.records = append(lt.records, rec)
	lt.pending = append(lt.pending, rec)
	lt.perStream[stream]++
	lt.pendBytes += size
	n.segFill += size
	n.open = append(n.open, rec)
	lt.stats.Appends++
	lt.stats.AppendedBytes += size
	if lt.pendBytes > lt.stats.MaxPendingBytes {
		lt.stats.MaxPendingBytes = lt.pendBytes
	}
	// The record's own event precedes any seal it triggers, so an
	// observer always learns of a record before its commit.
	if lt.observer != nil {
		lt.observer(LogOp{Kind: LogAppend, Record: rec.LogRecord})
	}
	if n.segFill >= lt.cfg.SegmentBytes {
		lt.seal(n)
	}
	cost := lt.cfg.AppendCost +
		time.Duration(float64(size)/lt.cfg.AppendBW*float64(time.Second))
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
// [off, off+size) of stream, or 0 when the range is fully drained — the
// read-your-writes barrier a reader must Wait for.
func (lt *LogTier) ReadBarrier(stream string, off, size int64) uint64 {
	if lt.perStream[stream] == 0 || size <= 0 {
		return 0
	}
	var seq uint64
	for _, r := range lt.pending {
		if r.Stream == stream && r.Off < off+size && off < r.Off+r.Size {
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
	if seq == 0 || lt.drained >= seq || lt.crashed {
		return 0
	}
	if read {
		lt.stats.ReadBackStalls++
	} else {
		lt.stats.AppendStalls++
	}
	start := lt.k.Now()
	lt.waiters = append(lt.waiters,
		logWaiter{seq: seq, p: p, start: start, read: read})
	lt.scheduleDrain()
	p.Suspend("cache: log-tier drain")
	return lt.k.Now() - start
}

// scheduleDrain arms the background drain — the flush-deadline
// machinery transplanted from the I/O-node cache: one pass is due at
// the head record's deadline, immediately under backpressure or with
// waiters blocked; armed fire times are tracked so an extra, earlier
// timer is added only when the armed ones are too late, and a timer
// whose work was drained by an earlier pass fires as a no-op.
func (lt *LogTier) scheduleDrain() {
	if lt.crashed || lt.draining || len(lt.pending) == 0 || lt.drainer == nil {
		return
	}
	now := lt.k.Now()
	at := lt.pending[0].deadline
	if at < now || len(lt.waiters) > 0 || lt.pendBytes > lt.cfg.CapacityBytes {
		at = now
	}
	if len(lt.drainq) > 0 && lt.drainq[0] <= at {
		return // an armed timer already fires soon enough
	}
	// Insert at, keeping drainq ascending (it is at most a few entries).
	i := len(lt.drainq)
	lt.drainq = append(lt.drainq, 0)
	for i > 0 && lt.drainq[i-1] > at {
		lt.drainq[i] = lt.drainq[i-1]
		i--
	}
	lt.drainq[i] = at
	lt.k.After(at-now, func() {
		// Timers fire in time order, so this firing is drainq's head.
		lt.drainq = lt.drainq[1:]
		lt.startDrain()
	})
}

// startDrain begins one pass over the head of the global append order.
func (lt *LogTier) startDrain() {
	if lt.crashed || lt.draining || len(lt.pending) == 0 {
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

// drainDone commits the pass's records, advances the watermark, wakes
// every waiter it satisfies, and re-arms the drain.
func (lt *LogTier) drainDone(n int) {
	lt.draining = false
	if lt.crashed {
		return // the in-flight batch died with the crash
	}
	seqs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r := lt.pending[i]
		r.drained = true
		lt.drained = r.Seq
		lt.pendBytes -= r.Size
		lt.perStream[r.Stream]--
		lt.stats.DrainedRecords++
		lt.stats.DrainedBytes += r.Size
		seqs = append(seqs, r.Seq)
	}
	lt.pending = lt.pending[n:]
	if lt.observer != nil {
		lt.observer(LogOp{Kind: LogDrain, Seqs: seqs})
	}
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

// Crash freezes the tier at the current instant: the in-flight drain
// batch (if any) is lost, no further drains run, and blocked waiters
// are released (their stall accounting stops here). After a crash the
// consistent cut is fixed and Replay returns it.
func (lt *LogTier) Crash() {
	if lt.crashed {
		return
	}
	lt.crashed = true
	for _, w := range lt.waiters {
		lt.stats.StallWait += time.Duration(lt.k.Now() - w.start)
		lt.k.Wake(w.p)
	}
	lt.waiters = nil
	if lt.observer != nil {
		lt.observer(LogOp{Kind: LogCrash})
	}
}

// Cut returns the consistent-cut sequence number: the largest S such
// that every record with Seq <= S is committed (drained, or in a sealed
// segment). Records above the cut — open-segment records and any drain
// batch in flight at a crash — are not recoverable in order.
func (lt *LogTier) Cut() uint64 {
	for _, r := range lt.records {
		if !r.drained && !r.sealed {
			return r.Seq - 1
		}
	}
	return uint64(len(lt.records))
}

// Replay returns the committed prefix of the global append order — the
// records a restart would read back, in the exact order they were
// appended. Typically called after Crash; on a live tier it returns the
// currently committed prefix.
func (lt *LogTier) Replay() []LogRecord {
	cut := lt.Cut()
	out := make([]LogRecord, 0, cut)
	for _, r := range lt.records[:cut] {
		out = append(out, r.LogRecord)
	}
	lt.stats.Replayed += uint64(len(out))
	return out
}
