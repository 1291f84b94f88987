package pablo

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestRecordPooledAllocs pins the zero-alloc steady state of the
// Record/Release cycle: once the pool holds a trace's growth ladder,
// re-recording a same-sized trace must allocate (almost) nothing — the
// regression gate for the suite re-run hot path.
func TestRecordPooledAllocs(t *testing.T) {
	ev := Event{
		Node: 3, Op: OpWrite, File: "escat.out", Offset: 512, Size: 4096,
		Start: time.Millisecond, Duration: 250 * time.Microsecond, Mode: ModeAsync,
	}
	const n = 4 * minPooledEvents
	var dig uint64
	cycle := func() {
		tr := NewTrace()
		for i := 0; i < n; i++ {
			tr.Record(ev)
		}
		dig = tr.Digest()
		tr.Release()
	}
	cycle() // warm the pool's size classes
	want := dig
	avg := testing.AllocsPerRun(20, cycle)
	if dig != want {
		t.Fatalf("digest drifted across pooled re-runs: %#x != %#x", dig, want)
	}
	// One allocation is the Trace itself; a small slack absorbs runtime
	// noise. Without the pool this path allocates the full doubling
	// ladder of event arrays (hundreds of KB in dozens of objects).
	if avg > 4 {
		t.Errorf("pooled record cycle allocates %.1f objects/run, want <= 4", avg)
	}
}

// TestPoolRejectsForeignBuffers pins the safety property that keeps
// Filter-built traces (plain append growth, arbitrary caps) out of the
// recycler.
func TestPoolRejectsForeignBuffers(t *testing.T) {
	p := &sharedEventPool
	p.mu.Lock()
	before := p.bytes
	p.mu.Unlock()

	putEventBuf(nil)
	putEventBuf(make([]Event, 0, minPooledEvents-1))  // undersized
	putEventBuf(make([]Event, 0, minPooledEvents+17)) // not a power of two

	p.mu.Lock()
	after := p.bytes
	p.mu.Unlock()
	if after != before {
		t.Errorf("foreign buffers entered the pool: %d -> %d bytes", before, after)
	}
}

// TestPoolAccountingExact puts one buffer of every size class a paper
// run grows through — up to 2^17 events, the carbon-monoxide trace —
// into an empty pool and takes each back. The byte count must track
// cap x unsafe.Sizeof(Event{}) exactly and return to zero, so the
// retention cap means what it says.
func TestPoolAccountingExact(t *testing.T) {
	p := &sharedEventPool
	p.mu.Lock()
	saved, savedBytes := p.byClass, p.bytes
	p.byClass, p.bytes = make(map[int][][]Event), 0
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.byClass, p.bytes = saved, savedBytes
		p.mu.Unlock()
	}()
	bytes := func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.bytes
	}

	var want int64
	for c := minPooledEvents; c <= 1<<17; c <<= 1 {
		putEventBuf(make([]Event, 0, c))
		want += int64(c) * int64(unsafe.Sizeof(Event{}))
		if got := bytes(); got != want {
			t.Fatalf("after putting a %d-event buffer: pool holds %d bytes, want %d", c, got, want)
		}
	}
	for c := minPooledEvents; c <= 1<<17; c <<= 1 {
		buf := tryGetEventBuf(c)
		if cap(buf) != c {
			t.Fatalf("took back a buffer of cap %d from class %d", cap(buf), c)
		}
	}
	if got := bytes(); got != 0 {
		t.Errorf("pool holds %d bytes after every buffer was taken back, want 0", got)
	}
}

// TestReleaseResetsDigest pins that a released-then-reused trace hashes
// from a clean state: the incremental digest must not leak across runs
// through a recycled buffer.
func TestReleaseResetsDigest(t *testing.T) {
	ev := Event{Node: 1, Op: OpRead, File: "f", Size: 8}
	tr := NewTrace()
	tr.Record(ev)
	first := tr.Digest()
	tr.Release()
	if tr.Len() != 0 {
		t.Fatalf("released trace keeps %d events", tr.Len())
	}
	tr.Record(ev)
	if got := tr.Digest(); got != first {
		t.Errorf("digest after release = %#x, want %#x", got, first)
	}
}

// TestPoolLevelIgnoresOverlap pins that the pool holds the same bytes
// after two traces recorded side by side as after one recorded alone:
// it keeps one buffer per size class, so what a long-lived process
// retains does not depend on which of its runs happened to overlap.
func TestPoolLevelIgnoresOverlap(t *testing.T) {
	p := &sharedEventPool
	p.mu.Lock()
	saved, savedBytes := p.byClass, p.bytes
	p.byClass, p.bytes = make(map[int][][]Event), 0
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.byClass, p.bytes = saved, savedBytes
		p.mu.Unlock()
	}()
	level := func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		for class, bufs := range p.byClass {
			if len(bufs) > 1 {
				t.Errorf("class %d holds %d buffers, want at most 1", class, len(bufs))
			}
		}
		return p.bytes
	}

	const n = 8 * minPooledEvents
	ev := Event{Node: 1, Op: OpWrite, File: "f", Size: 8}
	alone := NewTrace()
	for i := 0; i < n; i++ {
		alone.Record(ev)
	}
	alone.Release()
	want := level()

	a, b := NewTrace(), NewTrace()
	for i := 0; i < n; i++ {
		a.Record(ev)
		b.Record(ev)
	}
	a.Release()
	b.Release()
	if got := level(); got != want {
		t.Errorf("pool holds %d bytes after two overlapping traces, want %d as after one", got, want)
	}
}

// TestPoolConcurrentRuns records and releases traces from several
// goroutines at once, as parallel suite runs and daemon requests do.
// Each trace must hash exactly as the same events recorded alone: a
// buffer handed to two traces at once would mix their events. Run under
// -race (make vet-race) it also checks the pool's locking.
func TestPoolConcurrentRuns(t *testing.T) {
	const (
		workers = 4
		cycles  = 4
		n       = 4 * minPooledEvents
	)
	record := func(node int) *Trace {
		tr := NewTrace()
		for i := 0; i < n; i++ {
			tr.Record(Event{Node: int32(node), Op: OpWrite, File: "f",
				Offset: int64(i), Size: 8, Mode: ModeAsync})
		}
		return tr
	}
	want := make([]uint64, workers)
	for w := range want {
		tr := record(w)
		want[w] = tr.Digest()
		tr.Release()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				tr := record(w)
				if got := tr.Digest(); got != want[w] {
					t.Errorf("worker %d cycle %d: digest %#x, want %#x", w, c, got, want[w])
				}
				for i, ev := range tr.Events() {
					if ev.Node != int32(w) || ev.Offset != int64(i) {
						t.Errorf("worker %d cycle %d: event %d is %+v", w, c, i, ev)
						break
					}
				}
				tr.Release()
			}
		}(w)
	}
	wg.Wait()
}
