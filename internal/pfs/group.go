package pfs

import (
	"fmt"
	"sort"

	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// Group is a fixed set of compute nodes performing collective file
// operations (gopen, collective setiomode, and all data operations in
// M_RECORD / M_GLOBAL / M_SYNC). Every member must invoke the same
// collective calls in the same order; the group synchronizes them and
// charges the mesh synchronization costs, so stragglers inflate the
// measured duration of collective operations — exactly the effect behind
// the large gopen/iomode shares in the optimized code versions.
type Group struct {
	fs    *FileSystem
	nodes []int
	rank  map[int]int
	bar1  *sim.Barrier
	bar2  *sim.Barrier

	// per-round scratch, written by members before bar1 and by the
	// leader (rank 0) between bar1 and bar2
	sizes  []int64
	offs   []int64
	counts []int64
	file   *file

	// The M_RECORD / M_GLOBAL round verdict, folded in as members post
	// their sizes before bar1 and read by each after it.
	gathering bool  // a round's sizes are being posted
	first     int64 // the round's first posted size
	same      bool  // every size posted this round equals first
}

// NewGroup creates a collective group over the given node ids.
func (fs *FileSystem) NewGroup(nodes []int) (*Group, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("pfs: empty group")
	}
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	rank := make(map[int]int, len(sorted))
	for i, n := range sorted {
		if _, dup := rank[n]; dup {
			return nil, fmt.Errorf("pfs: duplicate node %d in group", n)
		}
		rank[n] = i
	}
	name := fmt.Sprintf("group[%d..%d]x%d", sorted[0], sorted[len(sorted)-1], len(sorted))
	return &Group{
		fs:     fs,
		nodes:  sorted,
		rank:   rank,
		bar1:   sim.NewBarrier(fs.k, name+"-gather", len(sorted)),
		bar2:   sim.NewBarrier(fs.k, name+"-release", len(sorted)),
		sizes:  make([]int64, len(sorted)),
		offs:   make([]int64, len(sorted)),
		counts: make([]int64, len(sorted)),
	}, nil
}

// Nodes returns the member node ids in rank order.
func (g *Group) Nodes() []int { return append([]int(nil), g.nodes...) }

// Gopen is the collective open: all members call it; the metadata
// operation is paid once (by the leader), which is what made gopen "an
// alternative to the more expensive open operation". The returned handle
// is bound to the group, and the mode is set as part of the open (so no
// separate iomode operation is needed).
func (g *Group) Gopen(p *sim.Proc, node int, name string, mode Mode) (*Handle, error) {
	rank, ok := g.rank[node]
	if !ok {
		return nil, ErrNotMember
	}
	if mode < 0 || mode >= numModes {
		return nil, fmt.Errorf("pfs: invalid mode %d", int(mode))
	}
	start := p.Now()
	g.bar1.Await(p)
	if rank == 0 {
		g.fs.meta.Use(p, costGopen)
		f := g.fs.lookup(name, true)
		f.mode = mode
		f.recSize = 0
		g.file = f
	}
	g.bar2.AwaitThen(p, g.fs.cfg.Mesh.Barrier(len(g.nodes)))
	f := g.file
	g.fs.trace(node, pablo.OpGopen, name, 0, 0, start, mode)
	return &Handle{fs: g.fs, f: f, node: node, group: g, buffered: true}, nil
}

// SetIOMode is the collective mode change: all members call it with
// their handle for the same file and the same target mode. The metadata
// operation is paid once. It also binds the handles to the group, which
// is how files opened with plain open become usable in collective modes
// (the PRISM version B pattern: open, then setiomode to M_GLOBAL).
func (g *Group) SetIOMode(p *sim.Proc, h *Handle, mode Mode) error {
	rank, ok := g.rank[h.node]
	if !ok {
		return ErrNotMember
	}
	if h.closed {
		return ErrClosed
	}
	if mode < 0 || mode >= numModes {
		return fmt.Errorf("pfs: invalid mode %d", int(mode))
	}
	start := p.Now()
	g.bar1.Await(p)
	if rank == 0 {
		// The leader pays the whole renegotiation while the group waits.
		h.renegotiate(p, mode)
	}
	g.bar2.AwaitThen(p, g.fs.cfg.Mesh.Barrier(len(g.nodes)))
	h.group = g
	g.fs.trace(h.node, pablo.OpIOMode, h.f.name, 0, 0, start, mode)
	return nil
}

// collectiveData implements Read/Write for the three collective modes.
// Returns the bytes transferred by this member.
func (g *Group) collectiveData(p *sim.Proc, h *Handle, size int64, write bool) (int64, error) {
	rank, ok := g.rank[h.node]
	if !ok {
		return 0, ErrNotMember
	}
	switch h.f.mode {
	case MRecord:
		return g.recordOp(p, h, rank, size, write)
	case MGlobal:
		return g.globalOp(p, h, rank, size, write)
	case MSync:
		return g.syncOp(p, h, rank, size, write)
	}
	panic("pfs: collectiveData on non-collective mode")
}

// postSize folds a member's requested size into the round's verdict
// before bar1, so no member rescans the group's sizes after it.
func (g *Group) postSize(size int64) {
	if !g.gathering {
		g.gathering, g.first, g.same = true, size, true
	} else if size != g.first {
		g.same = false
	}
}

// sameSizes reports, after bar1, whether every member asked for the same
// size. No member posts again before bar2, so every member of the round
// reads the same verdict.
func (g *Group) sameSizes() bool {
	g.gathering = false
	return g.same
}

// recordOp: fixed-size records, per-process pointers, synchronized
// rounds. Node r's k-th record sits at base + (k*N + r) * recSize, so
// the group sweeps disjoint areas in parallel — at full striping
// bandwidth when recSize is a multiple of the stripe unit.
func (g *Group) recordOp(p *sim.Proc, h *Handle, rank int, size int64, write bool) (int64, error) {
	start := p.Now()
	g.postSize(size)
	g.bar1.Await(p)
	// Every member reaches the round's verdict itself: it depends only on
	// the sizes gathered at bar1 and on the record size, which the first
	// member through the first good round sets to the size all asked for.
	var err error
	switch {
	case !g.sameSizes():
		err = ErrCollectiveMismatch
	case h.f.recSize == 0:
		h.f.recSize = size
	case size != h.f.recSize:
		err = ErrRecordSize
	}
	if err != nil {
		g.bar2.Await(p)
		return 0, err
	}
	g.bar2.AwaitThen(p, g.fs.cfg.Mesh.Barrier(len(g.nodes)))
	if !h.recStarted {
		h.ptr = h.recBase + int64(rank)*size
		h.recStarted = true
	}
	off := h.ptr
	n := h.move(p, off, size, write)
	h.ptr += int64(len(g.nodes)) * size
	g.fs.trace(h.node, opOf(write), h.f.name, off, n, start, MRecord)
	return n, nil
}

// globalOp: shared pointer, identical request from every node, one disk
// I/O performed by the leader and broadcast to the group.
func (g *Group) globalOp(p *sim.Proc, h *Handle, rank int, size int64, write bool) (int64, error) {
	start := p.Now()
	g.postSize(size)
	g.bar1.Await(p)
	if !g.sameSizes() {
		g.bar2.Await(p)
		return 0, ErrCollectiveMismatch
	}
	if rank == 0 {
		off := h.f.shared
		n := h.move(p, off, size, write)
		h.f.shared = off + n
		g.offs[0], g.counts[0] = off, n
	}
	// Result distribution (reads) or completion notification (writes).
	if !write {
		g.bar2.Await(p)
		p.Wait(g.fs.cfg.Mesh.Broadcast(len(g.nodes), g.counts[0]))
	} else {
		g.bar2.AwaitThen(p, g.fs.cfg.Mesh.Barrier(len(g.nodes)))
	}
	g.fs.trace(h.node, opOf(write), h.f.name, g.offs[0], g.counts[0], start, MGlobal)
	return g.counts[0], nil
}

// syncOp: shared pointer, node-ordered, per-node sizes may vary. The
// leader assigns rank-prefix offsets; data operations then serialize
// through the file token in wake order (an approximation of strict node
// order with identical aggregate timing).
func (g *Group) syncOp(p *sim.Proc, h *Handle, rank int, size int64, write bool) (int64, error) {
	start := p.Now()
	g.sizes[rank] = size
	g.bar1.Await(p)
	if rank == 0 {
		off := h.f.shared
		for r, s := range g.sizes {
			g.offs[r] = off
			if write {
				g.counts[r] = s
			} else {
				g.counts[r] = h.clampRead(off, s)
			}
			off += g.counts[r]
		}
		h.f.shared = off
	}
	g.bar2.Await(p)
	off, n := g.offs[rank], g.counts[rank]
	h.f.token.AcquireThen(p, costToken)
	h.move(p, off, n, write) // n is already clamped: files never shrink
	h.f.token.Release(p)
	g.fs.trace(h.node, opOf(write), h.f.name, off, n, start, MSync)
	return n, nil
}
