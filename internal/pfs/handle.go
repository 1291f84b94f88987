package pfs

import (
	"fmt"
	"time"

	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// Handle is one node's open file descriptor. All methods must be called
// from process context (the node's simulated process).
//
// The dispatch semantics follow the file's *current* access mode (which
// setiomode can change after open), exactly as on PFS.
type Handle struct {
	fs    *FileSystem
	f     *file
	node  int
	group *Group

	ptr        int64
	recStarted bool  // M_RECORD pointer initialized
	recBase    int64 // base offset the record pattern started from

	buffered       bool
	bufOff, bufLen int64

	closed bool
}

// Mode returns the file's current access mode.
func (h *Handle) Mode() Mode { return h.f.mode }

// Ptr returns the handle's private file pointer. For shared-pointer
// modes it returns the shared pointer.
func (h *Handle) Ptr() int64 {
	if h.f.mode.SharedPointer() {
		return h.f.shared
	}
	return h.ptr
}

// SetBuffering enables or disables client-side read buffering — the
// "system I/O buffering" control PRISM's developer used in version C.
// Disabling drops the current buffer. The call itself is free (it is a
// local flag, not a file system operation).
func (h *Handle) SetBuffering(on bool) {
	h.buffered = on
	if !on {
		h.bufOff, h.bufLen = 0, 0
	}
}

func (h *Handle) copyTime(n int64) time.Duration {
	return time.Duration(float64(n) / bufferCopyBW * float64(time.Second))
}

// readData moves n bytes at off to the client — through the coherent
// client cache tier when enabled, else through the legacy per-handle
// read buffer when enabled.
func (h *Handle) readData(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	if lg := h.fs.log; lg != nil {
		// Read-your-writes barrier: a read overlapping records still
		// sitting in the host-side log must wait for the drain to catch
		// up through them — the stall that makes the log tier a poor fit
		// for read-after-write-resident streams (restart reads).
		if seq := lg.ReadBarrier(h.f.id, off, n); seq > 0 {
			lg.Wait(p, seq, true)
		}
	}
	if ct := h.fs.client; ct != nil {
		// The client tier subsumes the legacy read buffer (which has no
		// invalidation protocol — the reason PRISM's version C turned it
		// off): while the tier is on, all reads go through it instead.
		if d, hit := ct.Read(h.node, h.f.id, off, n); hit {
			p.Wait(d)
			return
		}
		// Miss: fetch whole covering blocks through the PFS data path,
		// clamped to EOF, then install them under fresh leases and pay
		// the node-local copy of the requested bytes.
		bs := ct.BlockSize()
		lo := off / bs * bs
		hi := (off + n + bs - 1) / bs * bs
		if hi > h.f.size {
			hi = h.f.size
		}
		if hi < off+n {
			hi = off + n
		}
		h.fs.xfer(p, h.node, h.f, lo, hi-lo, false)
		ct.Install(h.node, h.f.id, lo, hi-lo)
		p.Wait(ct.CopyCost(n))
		return
	}
	if !h.buffered {
		h.fs.xfer(p, h.node, h.f, off, n, false)
		return
	}
	if off >= h.bufOff && off+n <= h.bufOff+h.bufLen {
		// Buffer hit: no disk traffic.
		p.Wait(costBufferHit + h.copyTime(n))
		return
	}
	// Miss: fetch a full buffer (one stripe unit: read-ahead) or the
	// request, whichever is larger, then pay the extra copy — the penalty that makes
	// buffering a poor fit for large requests.
	fetch := n
	if fetch < h.fs.cfg.StripeUnit {
		fetch = h.fs.cfg.StripeUnit
	}
	if rest := h.f.size - off; fetch > rest {
		fetch = rest
	}
	if fetch < n {
		fetch = n
	}
	h.fs.xfer(p, h.node, h.f, off, fetch, false)
	p.Wait(h.copyTime(n))
	h.bufOff, h.bufLen = off, fetch
}

// writeData moves n bytes at off to disk (write-through) and extends the
// file. Any read buffer is dropped to keep it coherent. With the client
// tier enabled, the write first runs the coherence protocol: peers
// holding valid leases on the written blocks are recalled, and the
// writer waits out the invalidation round-trip before its data leaves
// the node.
func (h *Handle) writeData(p *sim.Proc, off, n int64) {
	if ct := h.fs.client; ct != nil {
		if d := ct.Write(h.node, h.f.id, off, n); d > 0 {
			p.Wait(d)
		}
	}
	if lg := h.fs.log; lg != nil {
		// Host-side log: absorb the write at memory speed and let the
		// background drain move it to the PFS. Backpressure blocks the
		// appender when the undrained backlog exceeds the tier's
		// capacity, so a burst larger than the buffer still pays.
		cost, stall := lg.Append(h.node, h.f.id, off, n)
		if stall > 0 {
			lg.Wait(p, stall, false)
		}
		p.Wait(cost)
		if off+n > h.f.size {
			h.f.size = off + n
		}
		h.bufOff, h.bufLen = 0, 0
		return
	}
	h.fs.xfer(p, h.node, h.f, off, n, true)
	if off+n > h.f.size {
		h.f.size = off + n
	}
	h.bufOff, h.bufLen = 0, 0
}

// clampRead returns how many of size bytes at off are readable.
func (h *Handle) clampRead(off, size int64) int64 {
	n := h.f.size - off
	if n < 0 {
		return 0
	}
	if n > size {
		n = size
	}
	return n
}

// move transfers one request's bytes at off: all size bytes for a
// write, and for a read as many as the file holds past off. It returns
// the bytes moved. It is the data step of every access mode.
func (h *Handle) move(p *sim.Proc, off, size int64, write bool) int64 {
	if write {
		h.writeData(p, off, size)
		return size
	}
	n := h.clampRead(off, size)
	h.readData(p, off, n)
	return n
}

// opOf returns the trace operation of a read or a write.
func opOf(write bool) pablo.Op {
	if write {
		return pablo.OpWrite
	}
	return pablo.OpRead
}

// Read transfers up to size bytes at the current pointer, honoring the
// file's access mode, and returns the number of bytes read (0 at EOF).
func (h *Handle) Read(p *sim.Proc, size int64) (int64, error) { return h.data(p, size, false) }

// Write transfers size bytes at the current pointer, honoring the file's
// access mode, and returns the number written.
func (h *Handle) Write(p *sim.Proc, size int64) (int64, error) { return h.data(p, size, true) }

// data is the one body of Read and Write. The collective modes hand the
// request to the handle's group. The others move the bytes at a file
// pointer: M_UNIX and M_LOG hold the file token for the whole transfer,
// which is their request atomicity, while M_ASYNC takes no token. M_LOG
// reads and advances the file's shared pointer, the other two the
// handle's own.
func (h *Handle) data(p *sim.Proc, size int64, write bool) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if size <= 0 {
		return 0, ErrBadSize
	}
	mode := h.f.mode
	if mode.Collective() {
		if h.group == nil {
			return 0, ErrNotCollective
		}
		return h.group.collectiveData(p, h, size, write)
	}
	start := p.Now()
	atomic := mode != MAsync
	if atomic {
		h.f.token.AcquireThen(p, costToken)
	}
	ptr := &h.ptr
	if mode == MLog {
		ptr = &h.f.shared
	}
	off := *ptr
	n := h.move(p, off, size, write)
	*ptr += n
	if atomic {
		h.f.token.Release(p)
	}
	h.fs.trace(h.node, opOf(write), h.f.name, off, n, start, mode)
	return n, nil
}

// Seek repositions the handle's pointer to off (absolute). In M_UNIX the
// seek updates shared atomicity/EOF bookkeeping through the file token —
// the serialization that made seeks dominate ESCAT version B — while
// M_ASYNC and M_RECORD seeks are purely local. Shared-pointer modes do
// not support seeking.
func (h *Handle) Seek(p *sim.Proc, off int64) error {
	if h.closed {
		return ErrClosed
	}
	if off < 0 {
		return ErrBadOffset
	}
	mode := h.f.mode
	start := p.Now()
	switch mode {
	case MUnix:
		h.f.token.Use(p, costSeekShared)
	case MAsync, MRecord:
		p.Wait(costSeekLocal)
	default:
		return ErrSeekCollective
	}
	h.ptr = off
	h.recStarted = false
	h.recBase = off
	h.fs.trace(h.node, pablo.OpSeek, h.f.name, off, 0, start, mode)
	return nil
}

// SetIOMode changes the file's access mode via an individual metadata
// operation (the "iomode" rows of the paper's tables). Collective mode
// changes go through Group.SetIOMode.
func (h *Handle) SetIOMode(p *sim.Proc, mode Mode) error {
	if h.closed {
		return ErrClosed
	}
	if mode < 0 || mode >= numModes {
		return fmt.Errorf("pfs: invalid mode %d", int(mode))
	}
	start := p.Now()
	h.renegotiate(p, mode)
	h.fs.trace(h.node, pablo.OpIOMode, h.f.name, 0, 0, start, mode)
	return nil
}

// renegotiate is the body shared by the individual and collective
// SetIOMode: it changes the file's access discipline (mode, pointers,
// buffered data) with every I/O node holding a stripe. The caller pays
// the per-I/O-node metadata cost and, with the client tier on, the
// recall of every node's leases on the file; then the mode is set and
// any M_RECORD record size is forgotten.
func (h *Handle) renegotiate(p *sim.Proc, mode Mode) {
	h.fs.meta.Use(p, costSetIOMode*time.Duration(len(h.fs.ios)))
	if ct := h.fs.client; ct != nil {
		if d := ct.RecallStream(h.node, h.f.id); d > 0 {
			p.Wait(d)
		}
	}
	h.f.mode = mode
	h.f.recSize = 0
}

// Flush forces out client-side state (drops the read buffer) — the
// "flush" row in PRISM version C's table.
func (h *Handle) Flush(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	start := p.Now()
	p.Wait(costRequest)
	h.bufOff, h.bufLen = 0, 0
	if ct := h.fs.client; ct != nil {
		ct.InvalidateLocal(h.node, h.f.id)
	}
	h.fs.trace(h.node, pablo.OpFlush, h.f.name, 0, 0, start, h.f.mode)
	return nil
}

// Close releases the handle. PFS closes are asynchronous from the
// client's perspective (a local teardown plus a deferred server
// notification), so they do not queue on the metadata service.
func (h *Handle) Close(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	start := p.Now()
	p.Wait(costClose)
	h.closed = true
	h.fs.trace(h.node, pablo.OpClose, h.f.name, 0, 0, start, h.f.mode)
	return nil
}
