// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances a virtual clock by processing a time-ordered event
// queue. Simulated activities are written as ordinary Go functions running
// in "processes": coroutines the kernel resumes and that yield back to it,
// so exactly one process executes at a time and runs are bit-reproducible.
// Processes block on virtual-time waits and on synchronization primitives
// (Resource, Barrier), or Suspend until a callback Wakes them; the kernel
// resumes them when the corresponding event fires.
//
// Events scheduled for the same instant are processed in scheduling order
// (FIFO by sequence number), which — together with the single-runner
// coroutine handoff — makes the simulation fully deterministic regardless
// of Go's goroutine scheduling.
//
// Two dispatch paths exist. Process resumption is a coroutine switch
// (iter.Pull's next and yield): the runtime switches goroutines directly,
// with no channel, run queue or scheduler wakeup in between. Callback
// events run inline in the kernel loop with no switch at all;
// Resource.UseFn is the callback-shaped variant that lets hot
// non-process-shaped work (I/O-node service, cache flushes) take that
// cheaper path. A panic in a process body surfaces from Run as a
// *PanicError after every other process has been unwound.
// See docs/PERFORMANCE.md for the cost model.
package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time = time.Duration

// maxRetainedEvents caps the event storage (queue backing array and the
// same-timestamp batch buffer) a kernel keeps after its queue drains, so
// a kernel that peaked at hundreds of thousands of pending events does
// not pin that memory for its remaining lifetime.
const maxRetainedEvents = 4096

// event is a scheduled occurrence: either the resumption of a parked
// process or an inline callback. Keeping the struct at five words
// matters — every heap sift copies it.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // resume this process, if non-nil
	fn   func() // otherwise run this callback inline
}

// Kernel is a discrete-event simulation engine. A Kernel must be driven
// from a single goroutine; processes it spawns are coordinated internally.
//
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now   Time
	queue eventHeap
	seq   uint64

	procSeq   int
	live      int // processes spawned and not yet finished
	processed uint64

	// batch is scratch for same-timestamp dispatch runs (see runBatch).
	batch []event

	// blocked tracks processes parked with no pending wake event
	// (i.e. waiting on a synchronization primitive), for deadlock
	// reporting.
	blocked map[*Proc]string

	// observer, when non-nil, sees every dispatched event (SetObserver).
	observer func(at Time, seq uint64)

	// cancelCheck, when non-nil, is polled between dispatch batches. A
	// non-nil return aborts the run: every live process is unwound
	// deterministically and Run returns the error. See SetCancel.
	cancelCheck func() error
	// aborting is set while abort unwinds parked processes; park points
	// observe it and panic with procAbort so process stacks (and their
	// defers) unwind instead of blocking forever.
	aborting bool
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{blocked: make(map[*Proc]string)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsProcessed returns the number of events the kernel has dispatched.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// LiveProcs returns the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.live }

// schedule enqueues an event at the given absolute time.
func (k *Kernel) schedule(at Time, p *Proc, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, k.now))
	}
	k.seq++
	k.queue.push(event{at: at, seq: k.seq, proc: p, fn: fn})
}

// After schedules fn to run at Now()+d. It may be called from process
// context or from event callbacks.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.schedule(k.now+d, nil, fn)
}

// DeadlockError reports that the event queue drained while processes were
// still blocked on synchronization primitives.
type DeadlockError struct {
	Now     Time
	Blocked []string // "proc-name: reason", sorted
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked: %v",
		e.Now, len(e.Blocked), e.Blocked)
}

// PanicError reports that the run panicked: a process body (Proc names
// it) or, with Proc empty, an event callback. Run recovers the panic,
// unwinds every other live process and returns this error, so a model
// bug fails one run instead of the program that called Run.
type PanicError struct {
	Proc  string
	Now   Time
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack, from debug.Stack
}

func (e *PanicError) Error() string {
	who := "event callback"
	if e.Proc != "" {
		who = "process " + e.Proc
	}
	return fmt.Sprintf("sim: %s panicked at t=%v: %v", who, e.Now, e.Value)
}

// deadlockError builds the diagnosis for a drained queue with live
// processes still blocked.
func (k *Kernel) deadlockError() *DeadlockError {
	var blocked []string
	for p, reason := range k.blocked {
		blocked = append(blocked, p.name+": "+reason)
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: k.now, Blocked: blocked}
}

// SetCancel installs a cancellation check the run loop polls between
// dispatch batches. The first non-nil error aborts the run: pending
// events are dropped, every live process is unwound in spawn order (its
// deferred functions run), and Run returns the error. The
// canonical check wraps a context.Context: k.SetCancel(ctx.Err). A nil
// check (the default) disables polling; runs that never cancel are
// unaffected either way — the check runs between batches, never between
// events of one instant, so it cannot perturb event order.
func (k *Kernel) SetCancel(check func() error) {
	k.cancelCheck = check
}

// SetObserver installs a hook called for every dispatched event, in
// dispatch order, with its (at, seq). A nil fn removes the hook.
func (k *Kernel) SetObserver(fn func(at Time, seq uint64)) {
	k.observer = fn
}

// checkCancel polls the installed cancellation check.
func (k *Kernel) checkCancel() error {
	if k.cancelCheck == nil {
		return nil
	}
	return k.cancelCheck()
}

// procAbort is the sentinel a parked process panics with while the
// kernel aborts; the spawn wrapper recovers it and retires the process.
type procAbort struct{}

// abort unwinds every live process after a cancelled or panicked run and
// returns err. Parked processes are found in the blocked map (waiting on
// a synchronization primitive), the event queue and the undispatched
// rest of a batch a panic cut short (waiting on a pending wake), then
// resumed one at a time in spawn order; the abort flag makes each park
// point panic with procAbort, so the process's stack — and any defers on
// it — unwinds and its coroutine exits before the next one is resumed.
// The kernel is not reusable afterwards.
func (k *Kernel) abort(err error) error {
	k.aborting = true
	seen := make(map[*Proc]bool)
	var parked []*Proc
	add := func(p *Proc) {
		if p != nil && !p.done && !seen[p] {
			seen[p] = true
			parked = append(parked, p)
		}
	}
	for p := range k.blocked {
		add(p)
	}
	for i := range k.queue.ev {
		add(k.queue.ev[i].proc)
	}
	for i := range k.batch {
		add(k.batch[i].proc)
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].id < parked[j].id })
	for _, p := range parked {
		k.dispatch(p)
	}
	k.queue.ev = nil
	k.batch = nil
	k.trim()
	return err
}

// Run processes events until the queue is empty. It returns a
// *DeadlockError if any spawned process is still blocked when the queue
// drains, the cancellation error if an installed SetCancel check fired,
// a *PanicError if a process body or event callback panicked, and nil
// otherwise.
func (k *Kernel) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Now: k.now, Value: r, Stack: debug.Stack()}
			}
			err = k.abort(pe)
		}
	}()
	for k.queue.len() > 0 {
		if err := k.checkCancel(); err != nil {
			return k.abort(err)
		}
		k.runBatch(k.queue.min().at)
	}
	k.trim()
	if k.live > 0 {
		return k.deadlockError()
	}
	return nil
}

// runBatch advances the clock to at and dispatches, in sequence order,
// every event already queued for that instant. Draining the instant in
// one pass amortizes heap fix-ups: pops happen back to back while the
// root region is hot, and events the batch itself schedules (which carry
// higher sequence numbers, including same-instant wakeups) sift against
// the heap once instead of racing each dispatch. Exact (at, seq) order is
// preserved: batched events hold the smallest sequence numbers at this
// instant, and later arrivals are picked up by the next batch.
func (k *Kernel) runBatch(at Time) {
	batch := k.batch[:0]
	for k.queue.len() > 0 && k.queue.min().at == at {
		batch = append(batch, k.queue.pop())
	}
	k.batch = batch // visible to abort should a dispatch panic
	k.now = at
	for i := range batch {
		k.processed++
		if k.observer != nil {
			k.observer(batch[i].at, batch[i].seq)
		}
		if p := batch[i].proc; p != nil {
			k.dispatch(p)
		} else if fn := batch[i].fn; fn != nil {
			fn()
		}
		batch[i] = event{} // drop proc/fn references held by the scratch buffer
	}
	k.batch = batch[:0]
}

// trim releases oversized event storage once a run completes.
func (k *Kernel) trim() {
	if cap(k.queue.ev) > maxRetainedEvents {
		k.queue.ev = nil
	}
	if cap(k.batch) > maxRetainedEvents {
		k.batch = nil
	}
}

// dispatch switches to p's coroutine and returns when p parks or ends.
func (k *Kernel) dispatch(p *Proc) {
	delete(k.blocked, p)
	p.next()
}

// wake schedules p to resume at the current time (used by synchronization
// primitives releasing a waiter).
func (k *Kernel) wake(p *Proc) {
	k.schedule(k.now, p, nil)
}

// Wake resumes a process parked with Proc.Suspend inline, within the
// current event's dispatch position. It adds no event: the process
// continuation nests inside the waking event exactly as if the process
// itself had been executing it, which is what keeps a callback-shaped
// completion bit-identical to the process-shaped code it replaces.
func (k *Kernel) Wake(p *Proc) {
	k.dispatch(p)
}
