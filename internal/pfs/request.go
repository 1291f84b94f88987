package pfs

import (
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/sim"
)

// The data path. One read or write becomes one request per involved I/O
// node; a request travels the mesh, holds its node's FIFO resource for
// the disk (or cache) service, and completes by counting down its
// transfer's join, whose last request wakes the issuing process or runs
// the log drain's continuation. Requests and joins are recycled through
// their FileSystem's free lists, and a request's steps are bound once,
// when it is first made, so the steady-state data path allocates
// nothing.

// chunk is a contiguous piece of a request living on one I/O node.
type chunk struct {
	off, size int64
}

// request is one I/O-node request: the chunks one compute node moves
// through one physical I/O node, in ascending offset order. When it
// completes it counts down its transfer's join j.
type request struct {
	fs     *FileSystem
	node   int
	f      *file
	n      *ioNode // the physical node, routed at issue
	chunks []chunk // reused across recycles
	write  bool
	j      *join
	next   *request // free-list link

	// The request's steps, bound once.
	sendFn, arriveFn, doneFn func()
	holdFn                   func() sim.Time
}

// newRequest takes a request record off the free list, or makes one.
func (fs *FileSystem) newRequest(node int, f *file, write bool) *request {
	q := fs.freeReqs
	if q != nil {
		fs.freeReqs = q.next
		q.next = nil
	} else {
		q = &request{fs: fs}
		q.sendFn, q.arriveFn, q.holdFn, q.doneFn = q.send, q.arrive, q.hold, q.done
	}
	q.node, q.f, q.write = node, f, write
	q.chunks = q.chunks[:0]
	return q
}

// send is the one schedule of an I/O-node request: xfer calls it for
// its own request, a join's hop from a zero-delay event. The payload
// arrives after its mesh transfer time to the physical node; the
// request then holds the node's FIFO resource for its service, priced
// at grant time (hold), and completes at release (done). Pricing at
// grant time and completing inside the release event's dispatch keep
// every (at, seq) allocation, and hence the trace, identical to a
// process-shaped Acquire/Wait/Release sequence.
func (q *request) send() {
	var bytes int64
	for _, c := range q.chunks {
		bytes += c.size
	}
	q.fs.k.After(q.fs.meshCost(q.node, q.n.idx, bytes), q.arriveFn)
}

// arrive queues the request at its I/O node.
func (q *request) arrive() { q.n.res.UseFn(q.holdFn, q.doneFn) }

// hold prices the request's service at its I/O node.
func (q *request) hold() sim.Time {
	var d time.Duration
	for _, c := range q.chunks {
		d += q.n.service(q.f.id, c, q.write)
	}
	return d
}

// done returns the request to the free list, holding no join, file or
// node, and then counts down its join, which may therefore reuse the
// record.
func (q *request) done() {
	fs, j := q.fs, q.j
	q.j, q.f, q.n = nil, nil, nil
	q.next = fs.freeReqs
	fs.freeReqs = q
	j.done()
}

// join is one transfer's count of pending requests, and the process to
// wake or the continuation to run when the last one completes. Requests
// complete in later events than their issue: by then p has parked.
type join struct {
	fs      *FileSystem
	pending int
	p       *sim.Proc
	then    func()
	next    *join // free-list link
}

// newJoin takes a join record off the free list, or makes one.
func (fs *FileSystem) newJoin(p *sim.Proc, then func()) *join {
	j := fs.freeJoins
	if j != nil {
		fs.freeJoins = j.next
		j.next = nil
	} else {
		j = &join{fs: fs}
	}
	j.p, j.then = p, then
	return j
}

// add counts q in j.
func (j *join) add(q *request) {
	j.pending++
	q.j = j
}

// hop counts q in j and sends it from a zero-delay hop, which mirrors
// the start event a spawned helper process would get, so fan-out
// requests cost no process spawns and no coroutine switches. The hop is
// a real event, not a direct call: its sequence number is part of every
// golden trace digest.
func (j *join) hop(q *request) {
	j.add(q)
	j.fs.k.After(0, q.sendFn)
}

// done counts one request down; the last one releases the join and
// wakes p or runs then.
func (j *join) done() {
	j.pending--
	if j.pending > 0 {
		return
	}
	p, then := j.p, j.then
	j.release()
	if p != nil {
		j.fs.k.Wake(p)
	} else {
		then()
	}
}

// release returns the join to the free list, holding no process or
// continuation.
func (j *join) release() {
	j.p, j.then = nil, nil
	j.next = j.fs.freeJoins
	j.fs.freeJoins = j
}

// split turns [off, off+size) into one routed request per involved I/O
// node, ascending by logical I/O node, each holding that node's chunks
// in ascending offset order (contiguous on the array only if the
// request spans a full stripe cycle). Every involved node is routed
// before the caller schedules anything. The returned slice is the
// file system's scratch: it is valid until the next split.
func (fs *FileSystem) split(node int, f *file, off, size int64, write bool) []*request {
	u := fs.cfg.StripeUnit
	qs := fs.involved[:0]
	if size > 0 && off/u == (off+size-1)/u {
		// One stripe unit, one I/O node, one chunk: skip the scratch
		// (the common case for the paper's small-request workloads).
		io := (f.base + int((off/u)%int64(len(fs.ios)))) % len(fs.ios)
		q := fs.newRequest(node, f, write)
		q.n = fs.ios[fs.routeTo(io)]
		q.chunks = append(q.chunks, chunk{off: off, size: size})
		fs.involved = append(qs, q)
		return fs.involved
	}
	for size > 0 {
		stripe := off / u
		io := (f.base + int(stripe%int64(len(fs.ios)))) % len(fs.ios)
		n := u - off%u
		if n > size {
			n = size
		}
		q := fs.byIONode[io]
		if q == nil {
			q = fs.newRequest(node, f, write)
			fs.byIONode[io] = q
		}
		q.chunks = append(q.chunks, chunk{off: off, size: n})
		off += n
		size -= n
	}
	for io, q := range fs.byIONode {
		if q != nil {
			fs.byIONode[io] = nil
			q.n = fs.ios[fs.routeTo(io)]
			qs = append(qs, q)
		}
	}
	fs.involved = qs
	return qs
}

// xfer performs the data movement of one read or write request: client
// software overhead, network to each involved I/O node, FIFO disk
// service per node, with distinct I/O nodes proceeding in parallel.
// It blocks p until the slowest I/O node finishes.
func (fs *FileSystem) xfer(p *sim.Proc, node int, f *file, off, size int64, write bool) {
	if size <= 0 {
		return
	}
	p.Wait(costRequest)
	qs := fs.split(node, f, off, size, write)
	// Every involved node but the lowest hops; the lowest is sent
	// directly, after the hops: that order fixes every sequence number.
	j := fs.newJoin(p, nil)
	for _, q := range qs[1:] {
		j.hop(q)
	}
	j.add(qs[0])
	qs[0].send()
	p.Suspend("pfs: xfer")
}

// drainLog is the log tier's drain sink: it writes one batch of logged
// records through the regular PFS data path — per-record chunking, mesh
// transfer, FIFO disk service, fault-plane routing (crashed-node
// failover, straggler stretch) — and calls done when the slowest record
// finishes. It runs from the log tier's drain timers.
func (fs *FileSystem) drainLog(batch []cache.LogRecord, done func()) {
	j := fs.newJoin(nil, done)
	j.pending++ // the batch itself, counted down once every record is issued
	for _, r := range batch {
		for _, q := range fs.split(r.Node, fs.byID[r.Stream], r.Off, r.Size, true) {
			j.hop(q)
		}
	}
	j.done()
}
