// Client tier: a per-compute-node cache in front of the PFS data path,
// kept coherent by a lease-based protocol — the host-side buffering shape
// ParaLog/iFast showed wins for checkpoint-style workloads, and the
// missing piece the paper's applications worked around by hand (PRISM's
// version C disabled client buffering precisely because PFS's per-handle
// read buffer had no invalidation story).
//
// Protocol, in full:
//
//   - Every cached block carries a read lease with a simulated-time
//     expiry. A lookup is a hit only while the lease is valid; an
//     expired block is dropped at lookup (lazily, at zero cost) and the
//     refetch re-registers the holder with a fresh lease. There is no
//     local renewal: a lease can only be extended by going back through
//     the directory, so a writer always sees every holder it must
//     invalidate.
//   - Writes invalidate. The tier's directory lists each block's
//     resident copies; a write bumps the block's version and recalls the
//     block from every holder with a still-valid lease (expired holders
//     are skipped for free — their next lookup misses anyway). The
//     writer pays the invalidation round-trip before its data leaves the
//     node: the cost is the worst mesh round-trip over the recalled
//     peers, so coherence traffic is priced at real mesh latency.
//   - A conflicting setiomode recalls the whole stream: mode
//     renegotiation drops every node's cached blocks for that file, the
//     caller paying the same worst-peer round-trip.
//   - In-flight fills are poisoned by writes. A miss records the block
//     version it is fetching; if a write bumps the version before the
//     fill returns, the fill is discarded instead of installed — the
//     fetch and the write raced through the I/O-node queues, so the
//     fetched bytes could be either generation.
//
// All tier state is mutated exclusively from process context (the
// compute side of the simulation), so the tier is deterministic and
// race-free. Blocks are never dirty — PFS stays write-through
// underneath — so eviction is free and recalls never lose data, only
// leases.
//
// Versions exist purely for verification: the coherence oracle test
// subscribes via SetObserver and asserts that no read is ever served a
// version older than the last write. They cost two words per block and
// keep the protocol honest.
package cache

import (
	"fmt"
	"slices"
	"time"

	"paragonio/internal/mesh"
	"paragonio/internal/sim"
)

// ClientConfig describes the client (compute-node-side) cache tier. The
// zero value of every field selects a documented default, so
// &ClientConfig{} is usable as-is.
type ClientConfig struct {
	// CapacityBytes is the per-compute-node cache capacity (default
	// 1 MB — a slice of mid-90s node DRAM, not the I/O node's budget).
	CapacityBytes int64
	// LeaseTTL is how long a read lease stays valid in simulated time
	// (default 500 ms). Shorter leases cheapen writes (more holders have
	// already expired) and penalize re-reads; longer leases do the
	// opposite.
	LeaseTTL time.Duration
}

// clientBlockSize is the client cache block size in bytes: OS-page
// granularity, deliberately finer than the 64 KB stripe unit so
// small-record workloads don't false-share whole stripes.
const clientBlockSize int64 = 4 * 1024

// WithDefaults fills zero fields with their documented defaults, then
// validates.
func (c ClientConfig) WithDefaults() (ClientConfig, error) {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 1 << 20
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = DefaultClientTTL
	}
	return c, c.Validate()
}

// Validate reports whether the configuration is usable. It expects
// defaults to have been applied (WithDefaults).
func (c ClientConfig) Validate() error {
	if c.CapacityBytes < clientBlockSize {
		return fmt.Errorf("cache: client CapacityBytes = %d, need >= one block of %d", c.CapacityBytes, clientBlockSize)
	}
	if c.LeaseTTL <= 0 {
		return fmt.Errorf("cache: client LeaseTTL = %v, need > 0", c.LeaseTTL)
	}
	return nil
}

// ClientStats is a snapshot of the whole client tier's accumulated
// activity (summed over compute nodes).
type ClientStats struct {
	Hits   uint64 // block lookups served node-locally under a valid lease
	Misses uint64 // block lookups that went to the PFS data path

	LeaseExpired uint64 // resident blocks dropped at lookup because the lease aged out
	Installed    uint64 // blocks installed (fills and write-allocations)
	Evicted      uint64 // blocks evicted for capacity
	RacedFills   uint64 // fills discarded because a write landed while they were in flight

	Recalls      uint64 // lease-recall messages delivered to peer holders
	RecallRounds uint64 // writes that had to recall at least one peer
	StaleAverted uint64 // recalled blocks resident at the holder; every leased copy is, so this equals Recalls
	FileRecalls  uint64 // whole-stream recalls (setiomode renegotiations)
	Flaps        uint64 // flapping-client storms injected by the fault plane

	// RecallWait is the summed time writers spent blocked on
	// invalidation round-trips (the price of coherence).
	RecallWait time.Duration

	Blocks int // resident blocks right now, all nodes
	Nodes  int // compute nodes with an instantiated cache
}

// HitRatio returns Hits / (Hits + Misses), or 0 with no lookups.
func (s ClientStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ClientOpKind labels one client-tier state transition.
type ClientOpKind int

const (
	// ClientHit: a block lookup served node-locally; Version is the
	// version served (what the coherence oracle checks).
	ClientHit ClientOpKind = iota
	// ClientMiss: a block lookup that goes to the PFS data path.
	ClientMiss
	// ClientWrite: a write bumped the block's version to Version.
	ClientWrite
	// ClientRecall: Node's copy was invalidated by a peer's write or a
	// setiomode renegotiation.
	ClientRecall
	// ClientExpire: Node's resident copy was dropped at lookup because
	// its lease aged out.
	ClientExpire
	// ClientInstall: a block became resident at Node under a fresh
	// lease, at Version.
	ClientInstall
	// ClientEvict: Node's copy was evicted for capacity.
	ClientEvict
)

// ClientOp is one observable client-tier transition, delivered to the
// SetObserver hook. Used by the coherence oracle test.
type ClientOp struct {
	Kind    ClientOpKind
	Node    int
	Stream  int32 // the file's pfs id
	Block   int64
	Version uint64
}

// clientDirEntry is the directory's view of one block: its current
// version and every node's resident copy.
type clientDirEntry struct {
	version uint64
	copies  []*clientBlock // sorted by node id
}

// clientDirPageBits sizes a directory page: 2^7 = 128 entries, 4 KB.
const clientDirPageBits = 7

type clientDirPage [1 << clientDirPageBits]clientDirEntry

// clientDir is one stream's coherence directory, indexed by block
// number. It grows on demand one fixed-size page at a time and keeps its
// pages sorted by page number, so a sparse high offset costs one page
// and one slot in the page list, and a walk in block order needs no
// sort. Pages never move once allocated, so an entry pointer stays valid
// while the directory grows. The last page looked up is remembered: one
// request's blocks, and usually the next request's, share a page.
type clientDir struct {
	nums    []int64 // page numbers, ascending
	pages   []*clientDirPage
	lastNum int64
	last    *clientDirPage
}

// page returns page num, allocating it when create is set (nil when it
// is absent and create is not).
func (d *clientDir) page(num int64, create bool) *clientDirPage {
	if d.last != nil && d.lastNum == num {
		return d.last
	}
	i, found := slices.BinarySearch(d.nums, num)
	if !found {
		if !create {
			return nil
		}
		d.nums = slices.Insert(d.nums, i, num)
		d.pages = slices.Insert(d.pages, i, new(clientDirPage))
	}
	d.last, d.lastNum = d.pages[i], num
	return d.last
}

// entry returns block idx's entry, allocating its page on first use.
func (d *clientDir) entry(idx int64) *clientDirEntry {
	return &d.page(idx>>clientDirPageBits, true)[idx&(1<<clientDirPageBits-1)]
}

// lookup returns node's copy of block idx, or nil when it has none.
func (d *clientDir) lookup(node int, idx int64) *clientBlock {
	p := d.page(idx>>clientDirPageBits, false)
	if p == nil {
		return nil
	}
	for _, b := range p[idx&(1<<clientDirPageBits-1)].copies {
		if b.node == node {
			return b
		}
	}
	return nil
}

// held reports whether any block of the directory has a leased copy.
func (d *clientDir) held() bool {
	for _, p := range d.pages {
		for j := range p {
			for _, b := range p[j].copies {
				if b.leased {
					return true
				}
			}
		}
	}
	return false
}

// clientBlock is one node's resident copy of a block, listed in the
// block's directory entry and linked on its node's intrusive LRU list.
// A copy is leased from install until a write or stream recall clears
// the lease. A recall that finds the lease already expired leaves the
// copy resident but unleased: it takes capacity until its node's next
// lookup drops it.
type clientBlock struct {
	key        blockID
	entry      *clientDirEntry
	node       int
	leased     bool
	version    uint64
	expiry     sim.Time
	prev, next *clientBlock // LRU neighbours; next links the spare list
}

// clientNode is one compute node's cache, created lazily on first use.
type clientNode struct {
	id       int
	resident int // copies on the LRU list
	mru, lru *clientBlock
	// pending records the directory version each of this node's
	// in-flight fills saw at miss time; Install discards fills whose
	// block was written since — the data they carry raced the write
	// through the I/O-node queues and could be either generation.
	pending map[blockID]uint64
}

// ClientTier is the whole client cache tier: one lazily-created cache
// per compute node plus the coherence directory. All methods must be
// called from process context (the simulation's compute side), which
// serializes them; no locking is needed and runs are deterministic.
type ClientTier struct {
	k         *sim.Kernel
	m         *mesh.Mesh
	cfg       ClientConfig
	capBlocks int

	nodes    []*clientNode // indexed by compute-node id; nil until first use
	dirs     []*clientDir  // coherence directory per stream id; nil until first use
	spare    *clientBlock  // dropped copies, reused by the next installs
	peers    []int         // the recalled peers of the current write or stream recall
	stats    ClientStats
	observer func(ClientOp)
}

// NewClientTier creates the tier. cfg must already be valid (see
// ClientConfig.WithDefaults).
func NewClientTier(k *sim.Kernel, m *mesh.Mesh, cfg ClientConfig) (*ClientTier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("cache: client tier needs a mesh model for recall costing")
	}
	return &ClientTier{
		k:         k,
		m:         m,
		cfg:       cfg,
		capBlocks: int(cfg.CapacityBytes / clientBlockSize), // >= 1: Validate
	}, nil
}

// BlockSize returns the tier's block size.
func (t *ClientTier) BlockSize() int64 { return clientBlockSize }

// SetObserver installs a hook receiving every tier transition. Test-only
// instrumentation: the coherence oracle subscribes here.
func (t *ClientTier) SetObserver(fn func(ClientOp)) { t.observer = fn }

// Stats returns a snapshot of accumulated statistics.
func (t *ClientTier) Stats() ClientStats {
	s := t.stats
	for _, nc := range t.nodes {
		if nc != nil {
			s.Blocks += nc.resident
			s.Nodes++
		}
	}
	return s
}

func (t *ClientTier) emit(kind ClientOpKind, node int, k blockID, version uint64) {
	if t.observer != nil {
		t.observer(ClientOp{Kind: kind, Node: node, Stream: k.stream(), Block: k.idx(), Version: version})
	}
}

// node returns compute node id's cache, creating it on first use.
func (t *ClientTier) node(id int) *clientNode {
	for id >= len(t.nodes) {
		t.nodes = append(t.nodes, nil)
	}
	nc := t.nodes[id]
	if nc == nil {
		nc = &clientNode{id: id, pending: make(map[blockID]uint64)}
		t.nodes[id] = nc
	}
	return nc
}

// dir returns stream sid's directory, creating it on first use.
func (t *ClientTier) dir(sid int32) *clientDir {
	checkStream(sid)
	for int(sid) >= len(t.dirs) {
		t.dirs = append(t.dirs, nil)
	}
	d := t.dirs[sid]
	if d == nil {
		d = &clientDir{}
		t.dirs[sid] = d
	}
	return d
}

// clientCopyBW is the node-local memory-copy bandwidth in bytes/second
// used to hand cached bytes to the application: the same client-side
// copy the PFS read buffer pays.
const clientCopyBW float64 = 25e6

// CopyCost prices handing n bytes from the node's cache (or arrival
// buffer, on a fill) to the application.
func (t *ClientTier) CopyCost(n int64) time.Duration {
	return time.Duration(float64(n) / clientCopyBW * float64(time.Second))
}

// span returns the inclusive block-index range covering [off, off+size).
func (t *ClientTier) span(off, size int64) (first, last int64) {
	bs := clientBlockSize
	first, last = off/bs, (off+size-1)/bs
	checkSpan(first, last)
	return first, last
}

// clientHitCost is the fixed software cost of a lookup that hits:
// cheaper than the PFS client buffer hit (no handle-layer bookkeeping,
// just a page-table-shaped lookup).
const clientHitCost = 25 * time.Microsecond

// Read attempts to serve [off, off+size) of stream sid (the file's pfs
// id) from node's cache. It returns (serviceTime, true) when every
// covered block is resident under a valid lease, and (0, false)
// otherwise — the caller then fetches whole covering blocks through the
// PFS data path and registers them with Install. Expired residents
// encountered on either path are dropped lazily, for free.
func (t *ClientTier) Read(node int, sid int32, off, size int64) (time.Duration, bool) {
	if size <= 0 {
		return 0, true
	}
	now := t.k.Now()
	nc := t.node(node)
	first, last := t.span(off, size)
	dir := t.dir(sid)
	hit := true
	for idx := first; idx <= last; idx++ {
		b := dir.lookup(node, idx)
		if b == nil {
			hit = false
			continue
		}
		if b.expiry <= now {
			t.stats.LeaseExpired++
			t.emit(ClientExpire, node, b.key, b.version)
			t.dropBlock(b)
			hit = false
		}
	}
	n := uint64(last - first + 1)
	if !hit {
		t.stats.Misses += n
		for idx := first; idx <= last; idx++ {
			k := packBlock(sid, idx)
			// Remember what generation this fill is fetching, so a write
			// landing while it is in flight poisons it (see Install).
			nc.pending[k] = dir.entry(idx).version
			t.emit(ClientMiss, node, k, 0)
		}
		return 0, false
	}
	t.stats.Hits += n
	for idx := first; idx <= last; idx++ {
		b := dir.lookup(node, idx)
		t.touch(nc, b)
		t.emit(ClientHit, node, b.key, b.version)
	}
	return clientHitCost + t.CopyCost(size), true
}

// Install registers [off, off+size) of stream sid as resident at node
// under fresh leases, after the caller fetched it through the PFS data
// path. Partial tail blocks are safe to install: any write that changes
// their bytes bumps the version and recalls or expires this copy first.
//
// A fill whose block was written while it was in flight is discarded:
// the fetched bytes and the write raced through the I/O-node queues, so
// the fill could carry either generation — installing it might cache
// stale data under a fresh lease. The next lookup simply misses again.
func (t *ClientTier) Install(node int, sid int32, off, size int64) {
	if size <= 0 {
		return
	}
	expiry := t.k.Now() + t.cfg.LeaseTTL
	nc := t.node(node)
	first, last := t.span(off, size)
	dir := t.dir(sid)
	for idx := first; idx <= last; idx++ {
		k := packBlock(sid, idx)
		e := dir.entry(idx)
		if v, ok := nc.pending[k]; ok {
			delete(nc.pending, k)
			if v != e.version {
				t.stats.RacedFills++
				continue
			}
		}
		t.install(nc, k, e, expiry)
	}
}

// Write runs the coherence protocol for a write of [off, off+size) to
// stream sid by node and returns the invalidation cost the writer must
// wait out before its data leaves the node: the worst mesh round-trip
// over the peers that held valid leases on the written blocks. The
// writer's own copy stays resident (write-update for self) when the
// write fully covers the block or overwrites a still-leased copy;
// otherwise it is dropped — a partial write over an expired copy may
// sit next to bytes another node changed while the lease was dead.
func (t *ClientTier) Write(node int, sid int32, off, size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	now := t.k.Now()
	expiry := now + t.cfg.LeaseTTL
	nc := t.node(node)
	bs := clientBlockSize
	first, last := t.span(off, size)
	dir := t.dir(sid)
	t.peers = t.peers[:0]
	for idx := first; idx <= last; idx++ {
		k := packBlock(sid, idx)
		e := dir.entry(idx)
		e.version++
		// Every copy loses its lease; the writer's is leased again
		// through install below if it stays.
		own := t.recall(node, k, e, now)
		t.emit(ClientWrite, node, k, e.version)
		if off <= idx*bs && off+size >= (idx+1)*bs {
			// Fully covered: the writer's copy is the freshest possible.
			t.install(nc, k, e, expiry)
		} else if own != nil && own.expiry > now {
			// Partial overwrite of a still-leased copy: old bytes were
			// current (the lease guaranteed it), new bytes are ours.
			t.install(nc, k, e, expiry)
		} else if b := dir.lookup(node, idx); b != nil {
			t.dropBlock(b)
		}
	}
	d := t.recallCost(node)
	if d > 0 {
		t.stats.RecallRounds++
		t.stats.RecallWait += d
	}
	return d
}

// RecallStream recalls every node's cached blocks for stream sid — the
// setiomode renegotiation. The caller (node) pays the worst round-trip
// over the peers that held valid leases; its own leased blocks drop for
// free. Blocks are recalled in block order, walking the stream's
// directory.
func (t *ClientTier) RecallStream(node int, sid int32) time.Duration {
	now := t.k.Now()
	t.peers = t.peers[:0]
	if uint(sid) < uint(len(t.dirs)) && t.dirs[sid] != nil {
		dir := t.dirs[sid]
		for i, p := range dir.pages {
			base := dir.nums[i] << clientDirPageBits
			for j := range p {
				if len(p[j].copies) > 0 {
					if own := t.recall(node, packBlock(sid, base+int64(j)), &p[j], now); own != nil {
						t.dropBlock(own) // the caller's copy drops for free
					}
				}
			}
		}
	}
	t.stats.FileRecalls++
	d := t.recallCost(node)
	if d > 0 {
		t.stats.RecallWait += d
	}
	return d
}

// recall is the holder loop of both a write and a stream recall: it
// clears every lease on block k (directory entry e) on behalf of node.
// Each peer whose lease is still valid at now is recalled: its copy
// drops and it joins t.peers. Expired peers cost nothing; their copies
// stay unleased until their next lookup drops them. node's own leased
// copy is returned (nil if it had none) and left to the caller, because
// a writer may keep it while a stream recall drops it.
func (t *ClientTier) recall(node int, k blockID, e *clientDirEntry, now sim.Time) (own *clientBlock) {
	for i := 0; i < len(e.copies); {
		b := e.copies[i]
		if b.leased && b.node != node && b.expiry > now {
			t.stats.Recalls++
			t.stats.StaleAverted++ // a leased copy is always resident
			t.emit(ClientRecall, b.node, k, e.version)
			t.peers = addPeer(t.peers, b.node)
			t.dropBlock(b) // removes e.copies[i]
			continue
		}
		if b.leased && b.node == node {
			own = b
		}
		b.leased = false
		i++
	}
	return own
}

// Flap simulates one flap of a crash-looping client on node: the client
// reconnects and renegotiates every stream with any live lease, recalling
// all valid holders tier-wide (the lease-recall storm the fault plane's
// client-flap fault injects). Streams are recalled in id order, so the
// storm is deterministic. The returned duration is the summed recall
// cost the flapping client would wait out; the fault plane discards it
// — the storm's simulated cost is what the recalls inflict on everyone
// else's subsequent misses.
func (t *ClientTier) Flap(node int) time.Duration {
	var d time.Duration
	for sid, dir := range t.dirs {
		if dir != nil && dir.held() {
			d += t.RecallStream(node, int32(sid))
		}
	}
	t.stats.Flaps++
	return d
}

// InvalidateLocal drops node's cached blocks for stream sid without
// touching other holders — the client-side half of Handle.Flush. Free:
// blocks are clean and the node holds its own leases.
func (t *ClientTier) InvalidateLocal(node int, sid int32) {
	if uint(node) >= uint(len(t.nodes)) || t.nodes[node] == nil {
		return
	}
	for b := t.nodes[node].mru; b != nil; {
		next := b.next
		if b.key.stream() == sid {
			t.dropBlock(b)
		}
		b = next
	}
}

// clientRecallBytes is the payload of one lease-recall message: a
// control message, priced by mesh latency, not bandwidth.
const clientRecallBytes = 64

// recallCost prices one invalidation round: the worst round-trip from
// the caller to any peer in t.peers (recall message out, ack back).
// Recalls to distinct peers overlap, so the max — not the sum — is what
// the writer waits out.
func (t *ClientTier) recallCost(node int) time.Duration {
	var d time.Duration
	for _, peer := range t.peers {
		rt := t.m.Transfer(int64(node), int64(peer), clientRecallBytes) +
			t.m.Transfer(int64(peer), int64(node), 0)
		if rt > d {
			d = rt
		}
	}
	return d
}

func addPeer(peers []int, n int) []int {
	for _, p := range peers {
		if p == n {
			return peers
		}
	}
	return append(peers, n)
}

// install makes block k (directory entry e) resident at nc under a fresh
// lease at the entry's version, evicting for capacity.
func (t *ClientTier) install(nc *clientNode, k blockID, e *clientDirEntry, expiry sim.Time) {
	i := 0
	for i < len(e.copies) && e.copies[i].node < nc.id {
		i++
	}
	var b *clientBlock
	if i < len(e.copies) && e.copies[i].node == nc.id {
		b = e.copies[i]
		t.touch(nc, b)
	} else {
		// Evicting drops only nc's copies, none of them in e, so i holds.
		for nc.resident >= t.capBlocks {
			v := nc.lru
			t.stats.Evicted++
			t.emit(ClientEvict, nc.id, v.key, v.version)
			t.dropBlock(v)
		}
		if b = t.spare; b != nil {
			t.spare = b.next
		} else {
			b = new(clientBlock)
		}
		*b = clientBlock{key: k, entry: e, node: nc.id}
		e.copies = slices.Insert(e.copies, i, b)
		t.linkFront(nc, b)
		nc.resident++
	}
	b.leased = true
	b.version = e.version
	b.expiry = expiry
	t.stats.Installed++
	t.emit(ClientInstall, nc.id, k, b.version)
}

// dropBlock removes copy b from its node's LRU list and its directory
// entry, and keeps it for the next install.
func (t *ClientTier) dropBlock(b *clientBlock) {
	nc := t.nodes[b.node]
	t.unlink(nc, b)
	nc.resident--
	e := b.entry
	i := slices.Index(e.copies, b)
	e.copies = slices.Delete(e.copies, i, i+1)
	b.next, t.spare = t.spare, b
}

// --- per-node LRU bookkeeping ----------------------------------------

func (t *ClientTier) touch(nc *clientNode, b *clientBlock) {
	if nc.mru == b {
		return
	}
	t.unlink(nc, b)
	t.linkFront(nc, b)
}

func (t *ClientTier) unlink(nc *clientNode, b *clientBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		nc.mru = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		nc.lru = b.prev
	}
	b.prev, b.next = nil, nil
}

func (t *ClientTier) linkFront(nc *clientNode, b *clientBlock) {
	b.next = nc.mru
	if nc.mru != nil {
		nc.mru.prev = b
	}
	nc.mru = b
	if nc.lru == nil {
		nc.lru = b
	}
}
