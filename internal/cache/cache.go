// Package cache implements a deterministic per-I/O-node buffer cache —
// the server-side caching layer Intel PFS famously lacked and whose
// absence the paper's applications tuned around (checkpoint writes paying
// full positioning cost, version C disabling client buffering, staging
// phases hand-aggregating requests). It sits between the PFS I/O-node
// service loop and the RAID-3 array model, entirely inside the
// discrete-event simulation: no wall-clock time, no goroutines of its
// own, all asynchrony expressed through the kernel's callback primitives
// (Kernel.After, Resource.UseFn), so cached runs are bit-reproducible.
//
// The cache is block-granular with LRU replacement and provides:
//
//   - write-behind: dirty blocks are acknowledged at memory-copy cost and
//     flushed asynchronously by a background flusher that drains in
//     batches; reads of dirty blocks hit the cache, so ordering is
//     trivially correct (the array only ever sees flushes). Two flush
//     policies govern when a pass runs — see below;
//   - sequential read-ahead: a per-stream constant-stride detector (in
//     block space — one file's stripes visit an I/O node with a constant
//     stride) prefetches N blocks ahead and cancels queued prefetches
//     when the stride breaks;
//   - a full statistics surface — hits/misses, read-ahead
//     issued/used/cancelled, dirty-list depth and high-water mark,
//     forced-flush stalls — so experiments can explain *why* a
//     configuration wins, not just that it does.
//
// # Flush-policy state machine
//
// Dirty blocks sit on one intrusive list, the cache's one index of them,
// joining its tail on each clean → dirty transition; "oldest" below
// means the list's head, the block whose latest such transition is
// earliest. The write-behind flusher is a small state machine with two
// policies, selected by Config.FlushDeadline:
//
//   - High-water + idle (FlushDeadline == 0, the legacy policy). At most
//     one timer is armed at a time. When a block goes dirty, the flusher
//     arms a pass after IdleFlush — or immediately when the dirty count
//     is at or above DirtyHighWater. A pass writes up to FlushBatch of
//     the oldest dirty blocks while holding the I/O node resource, then
//     re-arms itself while dirty blocks remain.
//
//   - Deadline (FlushDeadline > 0). Every dirty block must reach the
//     array within FlushDeadline of first becoming dirty. Below the
//     high-water mark a pass writes only deadline-expired blocks, so
//     young blocks keep accumulating into bigger, later batches; the
//     next pass is armed for the oldest dirty block's deadline. At or
//     above DirtyHighWater a pass runs immediately and drains oldest-
//     first regardless of age (the safety valve is shared between the
//     policies). Because a pass can be armed far in the future, the
//     policy tracks every armed fire time and adds an earlier timer
//     when a high-water breach demands one; a timer whose work an
//     earlier pass already drained fires as a no-op.
//
// In both policies, an eviction that finds the LRU victim dirty writes
// it synchronously under the foreground request and counts a
// Stats.ForcedFlushStalls — the cost of letting the dirty list outrun
// the flusher. Stats.DeadlineFlushes counts passes whose batch was
// limited to deadline-expired blocks. The experiments package's
// flushpolicy study races the two policies against bursty checkpoint
// writers.
//
// Everything the cache does to the array happens while holding the I/O
// node's FIFO resource (Access runs at grant time; the flusher and
// prefetcher acquire the same resource through UseFn), preserving the
// single-actuator head-position model and the kernel's (at, seq) event
// order.
package cache

import (
	"fmt"
	"time"

	"paragonio/internal/disk"
	"paragonio/internal/sim"
)

// capacityFrac is the fraction of the backing array's capacity the
// cache defaults to when CapacityBytes is unset: 1/256 of a 4.8 GB array
// is ~19 MB per I/O node — a plausible mid-90s "what if the I/O nodes had
// spent their DRAM on a buffer cache" budget.
const capacityFrac float64 = 1.0 / 256

// maxDetectStride bounds the block stride the read-ahead detector will
// follow. Larger jumps are treated as random access.
const maxDetectStride = 64

// Config describes one I/O node's cache. The zero value of every field
// selects a documented default, so Config{WriteBehind: true} is usable
// as-is. The cache block is the PFS stripe unit, which makes one cached
// block exactly one stripe chunk; pfs passes it to WithDefaults and New.
type Config struct {
	// CapacityBytes is the cache capacity. 0 derives it as 1/256 of the
	// backing array's capacity.
	CapacityBytes int64
	// WriteBehind acknowledges writes at memory-copy cost and flushes
	// dirty blocks asynchronously. When false, writes go through to the
	// array synchronously (the cache still absorbs re-reads).
	WriteBehind bool
	// ReadAhead is how many blocks to prefetch ahead of a detected
	// sequential stream. 0 disables read-ahead.
	ReadAhead int
	// DirtyHighWater is the dirty-block count above which the flusher
	// runs immediately instead of waiting for the idle delay. 0 derives
	// half the cache's block capacity.
	DirtyHighWater int
	// FlushBatch is the maximum number of dirty blocks written per
	// flusher pass (default 8).
	FlushBatch int
	// IdleFlush is how long a dirty block may linger below the high-water
	// mark before a background flush picks it up (default 50 ms).
	IdleFlush time.Duration
	// FlushDeadline selects the deadline flush policy: every dirty block
	// is written within FlushDeadline of first becoming dirty, and below
	// the high-water mark the flusher writes only deadline-expired blocks.
	// 0 (the default) keeps the high-water + idle policy, in which a
	// flusher pass drains the oldest dirty blocks regardless of age.
	FlushDeadline time.Duration
}

// WithDefaults fills zero fields from blockSize (the PFS stripe unit)
// and the backing array's parameters, then validates.
func (c Config) WithDefaults(blockSize int64, d disk.Params) (Config, error) {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = int64(capacityFrac * d.CapacityGB * float64(1<<30))
	}
	if c.DirtyHighWater == 0 && blockSize > 0 {
		c.DirtyHighWater = int(c.CapacityBytes / blockSize / 2)
		if c.DirtyHighWater < 1 {
			c.DirtyHighWater = 1
		}
	}
	if c.FlushBatch == 0 {
		c.FlushBatch = 8
	}
	if c.IdleFlush == 0 {
		c.IdleFlush = 50 * time.Millisecond
	}
	return c, c.Validate(blockSize)
}

// Validate reports whether the configuration is usable with blocks of
// blockSize bytes. It expects defaults to have been applied
// (WithDefaults).
func (c Config) Validate(blockSize int64) error {
	if blockSize <= 0 {
		return fmt.Errorf("cache: block size = %d, need > 0", blockSize)
	}
	if c.CapacityBytes < 2*blockSize {
		return fmt.Errorf("cache: CapacityBytes = %d, need >= 2 blocks of %d", c.CapacityBytes, blockSize)
	}
	if c.ReadAhead < 0 {
		return fmt.Errorf("cache: negative ReadAhead %d", c.ReadAhead)
	}
	if c.DirtyHighWater < 1 {
		return fmt.Errorf("cache: DirtyHighWater = %d, need >= 1", c.DirtyHighWater)
	}
	if c.FlushBatch < 1 {
		return fmt.Errorf("cache: FlushBatch = %d, need >= 1", c.FlushBatch)
	}
	if c.IdleFlush <= 0 {
		return fmt.Errorf("cache: IdleFlush = %v, need > 0", c.IdleFlush)
	}
	if c.FlushDeadline < 0 {
		return fmt.Errorf("cache: negative FlushDeadline %v", c.FlushDeadline)
	}
	return nil
}

// Stats is a snapshot of one cache's accumulated activity.
type Stats struct {
	Hits   uint64 // block lookups served from cache
	Misses uint64 // block lookups that went to the array

	WriteBehindBytes  int64  // payload bytes acknowledged at copy cost
	Flushes           uint64 // background flusher passes that wrote blocks
	FlushedBlocks     uint64 // dirty blocks written by the background flusher
	DeadlineFlushes   uint64 // flusher passes limited to deadline-expired blocks (FlushDeadline > 0)
	ForcedFlushStalls uint64 // dirty LRU victims written synchronously under a foreground request

	Dirty    int // dirty blocks right now
	MaxDirty int // dirty-list depth high-water mark

	ReadAheadIssued    uint64 // blocks prefetched
	ReadAheadUsed      uint64 // prefetched blocks later hit by a demand read
	ReadAheadCancelled uint64 // prefetch batches dropped at grant (stride broke)

	Blocks int // resident blocks right now
}

// HitRatio returns Hits / (Hits + Misses), or 0 with no lookups.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ReadAheadAccuracy returns ReadAheadUsed / ReadAheadIssued, or 0 when no
// prefetches were issued.
func (s Stats) ReadAheadAccuracy() float64 {
	if s.ReadAheadIssued == 0 {
		return 0
	}
	return float64(s.ReadAheadUsed) / float64(s.ReadAheadIssued)
}

// Add accumulates o into s (for aggregating per-I/O-node stats).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.WriteBehindBytes += o.WriteBehindBytes
	s.Flushes += o.Flushes
	s.FlushedBlocks += o.FlushedBlocks
	s.DeadlineFlushes += o.DeadlineFlushes
	s.ForcedFlushStalls += o.ForcedFlushStalls
	s.Dirty += o.Dirty
	if o.MaxDirty > s.MaxDirty {
		s.MaxDirty = o.MaxDirty
	}
	s.ReadAheadIssued += o.ReadAheadIssued
	s.ReadAheadUsed += o.ReadAheadUsed
	s.ReadAheadCancelled += o.ReadAheadCancelled
	s.Blocks += o.Blocks
}

// block is one resident cache block on the intrusive LRU and dirty lists.
type block struct {
	key          blockID
	dirty        bool     // on the dirty list
	prefetched   bool     // brought in by read-ahead, not yet demanded
	dirtyAt      sim.Time // when the block last went clean → dirty (deadline policy clock)
	prev, next   *block   // LRU list
	dprev, dnext *block   // dirty list, oldest dirtyAt first
}

// stream is the per-stream read-ahead detector state.
type stream struct {
	seen    bool
	lastEnd int64 // last block index of the previous read request
	stride  int64 // detected block stride (0 = no pattern)
	run     int   // consecutive requests matching the stride
	ahead   int64 // highest block index already scheduled for prefetch
}

// timers is a queue of armed kernel timers, the deadline machinery both
// the I/O-node flusher and the log tier's drain schedule with. It keeps
// the fire time of every armed timer, ascending, so a caller can tell
// whether an armed timer already fires soon enough (covers) and add an
// earlier one only when none does. It holds a few entries at most.
// Every timer of one queue runs the same function, bound once, so
// arming allocates nothing once the queue has grown.
type timers struct {
	at   []sim.Time
	fire func() // pops the head, then runs the queue's function
}

// bind makes fn the function every timer of q runs. It is called once,
// before the first arm.
func (q *timers) bind(fn func()) {
	q.fire = func() {
		copy(q.at, q.at[1:])
		q.at = q.at[:len(q.at)-1]
		fn()
	}
}

// covers reports whether an armed timer fires at or before at.
func (q *timers) covers(at sim.Time) bool { return len(q.at) > 0 && q.at[0] <= at }

// arm schedules a timer on k at virtual time at (not before now).
// Timers fire in time order, so each firing pops the queue's head
// before the bound function runs.
func (q *timers) arm(k *sim.Kernel, at sim.Time) {
	i := len(q.at)
	q.at = append(q.at, 0)
	for i > 0 && q.at[i-1] > at {
		q.at[i] = q.at[i-1]
		i--
	}
	q.at[i] = at
	k.After(at-k.Now(), q.fire)
}

// Cache is one I/O node's buffer cache. It is driven entirely from kernel
// context (Access runs while the I/O node's resource is held; flusher and
// prefetcher schedule themselves through the same resource), so it needs
// no locking and is deterministic by construction.
type Cache struct {
	k         *sim.Kernel
	res       *sim.Resource
	array     *disk.Array
	cfg       Config
	blockSize int64 // the PFS stripe unit
	capBlocks int

	blocks   map[blockID]*block
	mru, lru *block    // intrusive LRU list: mru = most recently used
	streams  []*stream // read-ahead detector per stream id, created on first read
	spare    *block    // the last evicted block, reused by the next insert

	// oldest, newest: the intrusive dirty list, the one index of dirty
	// blocks, ordered by their latest clean → dirty transition.
	oldest, newest *block
	dirtyCount     int

	flushPending bool   // high-water + idle policy: one timer armed or pass running
	flushq       timers // deadline policy: armed flush timers
	inflight     int    // deadline policy: flusher passes issued, not yet completed
	stats        Stats

	// The flusher's steps, bound once in New.
	idleFlushFn, flushDoneFn func()
	flushHoldFn              func() sim.Time
}

// New creates a cache in front of array, sharing the I/O node's FIFO
// resource res for all background disk activity and caching blocks of
// blockSize bytes (the PFS stripe unit). cfg must already be valid (see
// Config.WithDefaults).
func New(k *sim.Kernel, res *sim.Resource, array *disk.Array, cfg Config, blockSize int64) (*Cache, error) {
	if err := cfg.Validate(blockSize); err != nil {
		return nil, err
	}
	c := &Cache{
		k:         k,
		res:       res,
		array:     array,
		cfg:       cfg,
		blockSize: blockSize,
		capBlocks: int(cfg.CapacityBytes / blockSize),
		blocks:    make(map[blockID]*block),
	}
	c.idleFlushFn, c.flushHoldFn, c.flushDoneFn = c.idleFlush, c.flushHold, c.flushDone
	c.flushq.bind(c.deadlineFlush)
	return c, nil
}

// Stats returns a snapshot of accumulated statistics.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Dirty = c.dirtyCount
	s.Blocks = len(c.blocks)
	return s
}

// Access serves one contiguous piece of a request to stream sid (the
// file's pfs id) through the cache and returns the service time. It must
// be called while the I/O node's
// resource is held (i.e. from the PFS service loop's hold pricing), so
// any array traffic it generates — miss fills, forced flushes of dirty
// victims — extends the current hold, exactly like uncached service.
func (c *Cache) Access(sid int32, off, size int64, write bool) time.Duration {
	if size <= 0 {
		return 0
	}
	bs := c.blockSize
	first, last := off/bs, (off+size-1)/bs
	checkSpan(first, last)
	checkStream(sid)
	var d time.Duration
	for idx := first; idx <= last; idx++ {
		lo, hi := idx*bs, (idx+1)*bs
		if lo < off {
			lo = off
		}
		if hi > off+size {
			hi = off + size
		}
		if write {
			d += c.writeBlock(packBlock(sid, idx), hi-lo)
		} else {
			d += c.readBlock(packBlock(sid, idx), hi-lo)
		}
	}
	if !write {
		c.noteRead(sid, first, last)
	}
	return d
}

// copyBW is the memory-copy bandwidth in bytes/second used to price
// cache-to-client transfers: server DRAM, faster than the clients'
// 25 MB/s buffer copies.
const copyBW float64 = 80e6

// hitCost is the fixed software cost of a cache lookup that hits,
// slightly under the client buffer-hit cost.
const hitCost = 30 * time.Microsecond

func (c *Cache) copyTime(n int64) time.Duration {
	return time.Duration(float64(n) / copyBW * float64(time.Second))
}

// serviceBlock prices one whole-block array transfer of k.
func (c *Cache) serviceBlock(k blockID) time.Duration {
	return c.array.Service(k.stream(), k.idx()*c.blockSize, c.blockSize)
}

// readBlock serves n payload bytes out of block k.
func (c *Cache) readBlock(k blockID, n int64) time.Duration {
	if b := c.blocks[k]; b != nil {
		c.touch(b)
		if b.prefetched {
			b.prefetched = false
			c.stats.ReadAheadUsed++
		}
		c.stats.Hits++
		return hitCost + c.copyTime(n)
	}
	c.stats.Misses++
	// Miss: make room, fill the whole block from the array, hand the
	// requested bytes to the client.
	d := c.evictOne()
	d += c.serviceBlock(k)
	c.insert(k)
	return d + hitCost + c.copyTime(n)
}

// writeBlock absorbs n payload bytes into block k.
func (c *Cache) writeBlock(k blockID, n int64) time.Duration {
	if !c.cfg.WriteBehind {
		// Write-through: the array sees the write immediately; a resident
		// copy stays coherent (whole-block writes simply refresh it).
		if b := c.blocks[k]; b != nil {
			c.touch(b)
		}
		return c.array.Service(k.stream(), k.idx()*c.blockSize, n)
	}
	var d time.Duration
	b := c.blocks[k]
	if b == nil {
		// Write allocation: no array fill, so neither a hit nor a miss.
		d += c.evictOne()
		b = c.insert(k)
	} else {
		c.touch(b)
		c.stats.Hits++
	}
	b.prefetched = false
	if !b.dirty {
		c.markDirty(b)
	}
	c.stats.WriteBehindBytes += n
	d += hitCost + c.copyTime(n)
	c.scheduleFlush()
	return d
}

// --- LRU bookkeeping -------------------------------------------------

// touch moves b to the MRU end.
func (c *Cache) touch(b *block) {
	if c.mru == b {
		return
	}
	c.unlink(b)
	c.linkFront(b)
}

func (c *Cache) unlink(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.mru = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		c.lru = b.prev
	}
	b.prev, b.next = nil, nil
}

func (c *Cache) linkFront(b *block) {
	b.next = c.mru
	if c.mru != nil {
		c.mru.prev = b
	}
	c.mru = b
	if c.lru == nil {
		c.lru = b
	}
}

// insert adds a clean MRU block for k and returns it. Callers make room
// with evictOne first.
func (c *Cache) insert(k blockID) *block {
	b := c.spare
	if b == nil {
		b = new(block)
	}
	c.spare = nil
	*b = block{key: k}
	c.blocks[k] = b
	c.linkFront(b)
	return b
}

// evictOne frees one slot if the cache is full, returning the synchronous
// write time if the victim was dirty (a forced-flush stall: the
// foreground request absorbs the victim's disk write).
func (c *Cache) evictOne() time.Duration {
	var d time.Duration
	for len(c.blocks) >= c.capBlocks {
		v := c.lru
		if v.dirty {
			d += c.clean(v)
			c.stats.ForcedFlushStalls++
		}
		c.unlink(v)
		delete(c.blocks, v.key)
		c.spare = v
	}
	return d
}

// --- write-behind flusher --------------------------------------------

// markDirty makes clean block b dirty now and appends it to the dirty
// list. Virtual time never runs backwards, so the list stays ordered by
// dirtyAt and its head is always the longest-dirty block.
func (c *Cache) markDirty(b *block) {
	b.dirty = true
	b.dirtyAt = c.k.Now()
	b.dprev = c.newest
	if c.newest != nil {
		c.newest.dnext = b
	} else {
		c.oldest = b
	}
	c.newest = b
	c.dirtyCount++
	if c.dirtyCount > c.stats.MaxDirty {
		c.stats.MaxDirty = c.dirtyCount
	}
}

// clean writes dirty block b to the array, takes it off the dirty list
// and returns the write's service time.
func (c *Cache) clean(b *block) time.Duration {
	if b.dprev != nil {
		b.dprev.dnext = b.dnext
	} else {
		c.oldest = b.dnext
	}
	if b.dnext != nil {
		b.dnext.dprev = b.dprev
	} else {
		c.newest = b.dprev
	}
	b.dprev, b.dnext = nil, nil
	b.dirty = false
	c.dirtyCount--
	return c.serviceBlock(b.key)
}

// scheduleFlush arms the background flusher when there is dirty data.
// Above the high-water mark the flusher runs at once; below it, the
// high-water + idle policy waits IdleFlush, while the deadline policy
// (FlushDeadline > 0) waits until the deadline of the oldest dirty block,
// the dirty list's head. The flusher is entirely callback-shaped: it only
// reschedules itself while dirty blocks remain, so a cached run's event
// queue drains and Kernel.Run terminates normally.
//
// The two policies differ structurally: the idle policy keeps at most
// one timer armed (it only ever arms IdleFlush or 0, which fires soon),
// while the deadline policy can be armed far in the future when a
// high-water breach demands an immediate pass, so it tracks every armed
// fire time and adds an extra, earlier timer when the armed ones are too
// late; a timer whose work was drained by an earlier pass fires as a
// no-op without touching the resource.
func (c *Cache) scheduleFlush() {
	if c.dirtyCount == 0 {
		return
	}
	if c.cfg.FlushDeadline == 0 {
		if c.flushPending {
			return
		}
		delay := c.cfg.IdleFlush
		if c.dirtyCount >= c.cfg.DirtyHighWater {
			delay = 0
		}
		c.flushPending = true
		c.k.After(delay, c.idleFlushFn)
		return
	}
	now := c.k.Now()
	delay := c.oldest.dirtyAt + c.cfg.FlushDeadline - now
	if delay < 0 || c.dirtyCount >= c.cfg.DirtyHighWater {
		delay = 0
	}
	at := now + delay
	if c.flushq.covers(at) {
		return // an armed timer already fires soon enough
	}
	if delay == 0 && c.inflight > 0 {
		return // an immediate pass is already queued on the resource
	}
	c.flushq.arm(c.k, at)
}

// idleFlush is the high-water + idle policy's timer: it queues one
// flusher pass on the I/O node's resource.
func (c *Cache) idleFlush() { c.res.UseFn(c.flushHoldFn, c.flushDoneFn) }

// deadlineFlush is the deadline policy's timer: it queues one flusher
// pass unless an earlier pass drained everything.
func (c *Cache) deadlineFlush() {
	if c.dirtyCount == 0 {
		return // stale: an earlier pass drained everything
	}
	c.inflight++
	c.res.UseFn(c.flushHoldFn, c.flushDoneFn)
}

// flushHold runs at grant time on the I/O node's resource: it writes up
// to FlushBatch of the oldest dirty blocks, each off the dirty list's
// head, and prices the hold with their service time. Under the deadline
// policy a pass below the high-water mark writes only blocks whose
// deadline has expired, so young dirty data keeps absorbing rewrites
// until its own deadline; high-water pressure still drains a full batch
// regardless of age.
func (c *Cache) flushHold() sim.Time {
	expiredOnly := c.cfg.FlushDeadline > 0 && c.dirtyCount < c.cfg.DirtyHighWater
	now := c.k.Now()
	var d time.Duration
	wrote := 0
	for b := c.oldest; b != nil && wrote < c.cfg.FlushBatch; b = c.oldest {
		if expiredOnly && b.dirtyAt+c.cfg.FlushDeadline > now {
			break
		}
		d += c.clean(b)
		c.stats.FlushedBlocks++
		wrote++
	}
	if wrote > 0 {
		c.stats.Flushes++
		if expiredOnly {
			c.stats.DeadlineFlushes++
		}
	}
	return d
}

// flushDone re-arms the flusher if dirty blocks remain.
func (c *Cache) flushDone() {
	if c.cfg.FlushDeadline == 0 {
		c.flushPending = false
	} else {
		c.inflight--
	}
	c.scheduleFlush()
}

// --- read-ahead -------------------------------------------------------

// noteRead feeds the stride detector with one read request's block span
// and schedules prefetches when a stable pattern is visible.
func (c *Cache) noteRead(sid int32, first, last int64) {
	if c.cfg.ReadAhead <= 0 {
		return
	}
	for int(sid) >= len(c.streams) {
		c.streams = append(c.streams, nil)
	}
	s := c.streams[sid]
	if s == nil {
		s = &stream{}
		c.streams[sid] = s
	}
	gap := first - s.lastEnd
	switch {
	case !s.seen:
		// First request: nothing to detect yet.
	case gap >= 1 && gap == s.stride:
		s.run++
	case gap >= 1 && gap <= maxDetectStride:
		s.stride = gap
		s.run = 1
	default:
		// Backward jump, overlap, or wild stride: pattern broken. Queued
		// prefetch batches for this stream cancel at grant time.
		s.stride, s.run, s.ahead = 0, 0, 0
	}
	s.seen = true
	s.lastEnd = last
	if s.run < 1 || s.stride <= 0 {
		return
	}
	// Predict the next requests at last+stride, last+2*stride, … and
	// prefetch up to ReadAhead blocks beyond what is already scheduled.
	var targets []int64
	for j := int64(1); j <= int64(c.cfg.ReadAhead); j++ {
		t := last + s.stride*j
		if t > s.ahead {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return
	}
	s.ahead = targets[len(targets)-1]
	genStride := s.stride
	c.res.UseFn(func() sim.Time {
		if s.stride != genStride {
			// Stride broke while we were queued: cancel the whole batch.
			c.stats.ReadAheadCancelled++
			return 0
		}
		var d time.Duration
		for _, idx := range targets {
			if idx > maxBlockIdx {
				break // predicted past the key range: nothing can read there
			}
			k := packBlock(sid, idx)
			if c.blocks[k] != nil {
				continue // demand-fetched while we were queued
			}
			d += c.evictOne()
			d += c.serviceBlock(k)
			c.insert(k).prefetched = true
			c.stats.ReadAheadIssued++
		}
		return d
	}, nil)
}
