package pablo

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Event-buffer pool. A full application run records hundreds of
// thousands of events, and the append-driven growth of each Trace's
// backing array dominated the byte volume of suite re-runs (about two
// thirds of the bytes behind BenchmarkTable2ESCATIOTime). Traces are
// short-lived in the paths that matter — the iosimd daemon and the
// report tables build a trace, analyse it, and drop it — so recycled
// power-of-two buffers turn that churn into a handful of pool hits.
//
// The pool is a mutex-guarded free list rather than a sync.Pool:
// Trace.Release is an explicit hand-back, the simulator records from
// one goroutine at a time, and a deterministic pool lets the
// AllocsPerRun regression test pin the steady state at ~zero
// allocations, which GC-emptied sync.Pool buckets cannot guarantee.
//
// The pool keeps at most one buffer per size class. How many buffers of
// a class exist at once depends on which runs overlapped in time, so a
// pool that kept every returned buffer would grow, run by run, to the
// largest overlap it had ever seen, and a long-lived process would hold
// more memory or less depending on thread timing. With one per class
// the pool holds the same buffers once every class in use has been
// returned: a serial re-run still allocates nothing, and an overlapping
// run allocates the classes its partner holds and drops them again.
//
// Pooled buffers keep their contents (only the length is reset), so a
// retained buffer pins the file-name strings of the run that filled it;
// maxPoolBytes bounds that retention.

const (
	// minPooledEvents is the smallest pooled buffer capacity. Traces
	// below it double plainly (cheap, short-lived arrays) unless the
	// pool already holds a recycled buffer to jump to; from here up,
	// all growth is pooled.
	minPooledEvents = 1 << 10

	// maxPoolBytes caps the bytes the pool retains across all size
	// classes; beyond it, returned buffers fall to the GC.
	maxPoolBytes = 192 << 20

	// eventBytes is the size of one pooled slot, so the retention cap
	// stays exact if Event changes.
	eventBytes = int64(unsafe.Sizeof(Event{}))
)

type eventPool struct {
	mu      sync.Mutex
	bytes   int64
	byClass map[int][][]Event // log2(cap) → free buffers, at most one
}

var sharedEventPool = eventPool{byClass: make(map[int][][]Event)}

// getEventBuf returns an empty buffer with the given power-of-two
// capacity, reusing a pooled one when available.
func getEventBuf(capacity int) []Event {
	if buf := tryGetEventBuf(capacity); buf != nil {
		return buf
	}
	return make([]Event, 0, capacity)
}

// tryGetEventBuf returns a pooled buffer of the given power-of-two
// capacity, or nil when the class is empty — it never allocates.
func tryGetEventBuf(capacity int) []Event {
	class := bits.TrailingZeros(uint(capacity))
	p := &sharedEventPool
	p.mu.Lock()
	defer p.mu.Unlock()
	bufs := p.byClass[class]
	if len(bufs) == 0 {
		return nil
	}
	buf := bufs[len(bufs)-1]
	p.byClass[class] = bufs[:len(bufs)-1]
	p.bytes -= int64(capacity) * eventBytes
	return buf
}

// putEventBuf returns a buffer to the pool. Buffers that were never
// pool-grown — nil, undersized, or non-power-of-two capacities from
// plain append (Filter-built traces) — are silently dropped, as is a
// buffer whose class the pool already holds and anything over the
// retention cap.
func putEventBuf(buf []Event) {
	c := cap(buf)
	if c < minPooledEvents || c&(c-1) != 0 {
		return
	}
	class := bits.TrailingZeros(uint(c))
	p := &sharedEventPool
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.byClass[class]) > 0 || p.bytes+int64(c)*eventBytes > maxPoolBytes {
		return
	}
	p.byClass[class] = append(p.byClass[class], buf[:0])
	p.bytes += int64(c) * eventBytes
}
