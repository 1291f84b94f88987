// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances a virtual clock by processing a time-ordered event
// queue. Simulated activities are written as ordinary Go functions running
// in "processes": coroutines the kernel resumes and that yield back to it,
// so exactly one process executes at a time and runs are bit-reproducible.
// Processes block on virtual-time waits and on synchronization primitives
// (Resource, Barrier), or Suspend until a callback Wakes them. Each resume
// is an event of the run loop, so whatever woke a process has returned.
//
// Events scheduled for the same instant are processed in scheduling order
// (FIFO by sequence number), which — together with the single-runner
// coroutine handoff — makes the simulation fully deterministic regardless
// of Go's goroutine scheduling. Events for the current instant go on a
// FIFO ready lane; only later events go through the time-ordered heap.
//
// An event is dispatched in one of five shapes:
//
//   - Coroutine resume: a process event switches to the process's
//     coroutine (iter.Pull's next and yield). The runtime switches
//     goroutines directly, with no channel, run queue or scheduler
//     wakeup in between.
//   - Inline callback: a callback event runs in the kernel loop with no
//     switch at all. Resource.UseFn is the callback-shaped variant that
//     lets hot non-process-shaped work (I/O-node service, cache flushes)
//     take this path.
//   - Inline wait: when a running process calls Wait and its own wake
//     would be the very next event dispatched, Wait advances the clock
//     and accounts the event itself and returns without parking.
//   - Deferred wait: a process parked in Barrier.AwaitThen or
//     Resource.AcquireThen named the Wait it makes on waking; its wake
//     event schedules that wait instead of resuming the process.
//   - Rounds in place: a process in Barrier.Rounds runs its collective
//     rounds (compute wait, barrier arrival, cost wait) in the run loop.
//     The end of its compute wait makes its arrival, the release its
//     cost wait, and the end of that wait draws the next round's
//     compute and schedules it, so the process is resumed once, after
//     its last round.
//
// A panic in a process body surfaces from Run as a *PanicError after
// every other process has been unwound.
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
	now Time
	seq uint64

	// ready holds the events due at now, in sequence order; queue holds
	// every later event. Every heap event at now was scheduled before the
	// clock reached now, so it is moved to the lane before any event the
	// instant itself schedules: the lane's FIFO order is (at, seq) order.
	ready fifo[event]
	queue eventHeap

	procs     []*Proc // every spawned process, in spawn order
	live      int     // processes spawned and not yet finished
	processed uint64

	// stepping is the process whose round the run loop is drawing in
	// its place (inPlace), so that a panic in the draw names it.
	stepping *Proc

	// observer, when non-nil, sees every dispatched event (SetObserver).
	observer func(at Time, seq uint64)

	// cancelCheck, when non-nil, is polled before each instant's dispatch
	// pass. A non-nil return aborts the run: every live process is
	// unwound deterministically and Run returns the error. See SetCancel.
	cancelCheck func() error
	// aborting is set while abort unwinds parked processes; park points
	// observe it and panic with procAbort so process stacks (and their
	// defers) unwind instead of blocking forever.
	aborting bool
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsProcessed returns the number of events the kernel has dispatched.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// LiveProcs returns the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.live }

// schedule enqueues an event at the given absolute time: on the ready
// lane if it is due now, on the heap otherwise.
func (k *Kernel) schedule(at Time, p *Proc, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, k.now))
	}
	k.seq++
	if at == k.now {
		k.ready.push(event{at: at, seq: k.seq, proc: p, fn: fn})
	} else {
		k.queue.push(event{at: at, seq: k.seq, proc: p, fn: fn})
	}
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
	for _, p := range k.procs {
		if !p.done && p.blocked != "" {
			blocked = append(blocked, p.name+": "+p.blocked)
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: k.now, Blocked: blocked}
}

// SetCancel installs a cancellation check the run loop polls before
// each instant's dispatch pass. The first non-nil error aborts the run:
// pending events are dropped, every live process is unwound in spawn
// order (its deferred functions run), and Run returns the error. The
// canonical check wraps a context.Context: k.SetCancel(ctx.Err), or, as
// core.RunContext installs it, an atomic flag raised by
// context.AfterFunc that consults ctx.Err only once it is set. A nil
// check (the default) disables polling; runs that never cancel are
// unaffected either way — the check runs before an instant's first
// event, never between events of one instant, so it cannot perturb
// event order.
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
// returns err. Every unfinished process is parked — on a synchronization
// primitive, on a pending wake, or before its start event — so each is
// resumed in turn, in spawn order; the abort flag makes its park point
// panic with procAbort, so the process's stack — and any defers on it —
// unwinds and its coroutine exits before the next one is resumed. A
// process spawned during the unwind is retired the same way. The kernel
// is not reusable afterwards.
func (k *Kernel) abort(err error) error {
	k.aborting = true
	for i := 0; i < len(k.procs); i++ {
		if p := k.procs[i]; !p.done {
			k.dispatch(p)
		}
	}
	k.ready = fifo[event]{}
	k.queue.ev = nil
	return err
}

// Run processes events until the queue is empty. It returns a
// *DeadlockError if any spawned process is still blocked when the queue
// drains, the cancellation error if an installed SetCancel check fired,
// a *PanicError if a process body or event callback panicked, and nil
// otherwise.
//
// Each pass dispatches the ready lane until it is empty, including the
// events the pass itself schedules for the same instant. Between passes
// the clock advances to the heap's earliest time and every heap event at
// that time moves to the lane.
func (k *Kernel) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Now: k.now, Value: r, Stack: debug.Stack()}
				if k.stepping != nil {
					pe.Proc = k.stepping.name
				}
			}
			err = k.abort(pe)
		}
	}()
	for k.ready.len() > 0 || k.queue.len() > 0 {
		if err := k.checkCancel(); err != nil {
			return k.abort(err)
		}
		if k.ready.len() == 0 {
			k.now = k.queue.min().at
			for k.queue.len() > 0 && k.queue.min().at == k.now {
				k.ready.push(k.queue.pop())
			}
		}
		for k.ready.len() > 0 {
			e := k.ready.pop()
			k.processed++
			if k.observer != nil {
				k.observer(e.at, e.seq)
			}
			if e.proc != nil && e.proc.step != stepNone {
				k.inPlace(e.proc)
			} else if e.proc != nil {
				k.dispatch(e.proc)
			} else if e.fn != nil {
				e.fn()
			}
		}
	}
	if k.live > 0 {
		return k.deadlockError()
	}
	return nil
}

// dispatch switches to p's coroutine and returns when p parks or ends.
func (k *Kernel) dispatch(p *Proc) {
	p.blocked = ""
	p.next()
}

// inPlace takes the step p.step names in place of the parked process p,
// without resuming it, and arms the step after it (see Barrier.Rounds):
// stepNext draws the next round's compute and schedules its wait;
// stepArrive makes the round's arrival, leaving p parked on the barrier
// unless it released the epoch; stepThen schedules the armed wait,
// whose end starts the next round if any remain and resumes p
// otherwise. An arrival p already made this epoch is handed back: p is
// resumed, arrives itself and panics as Await does.
func (k *Kernel) inPlace(p *Proc) {
	switch p.step {
	case stepNext:
		p.rounds--
		k.stepping = p
		d := p.draw()
		if d < 0 {
			panic("sim: negative wait on " + p.name)
		}
		k.stepping = nil
		p.step = stepArrive
		k.schedule(k.now+d, p, nil)
		return
	case stepArrive:
		b := p.round
		if p.barrier == b {
			k.dispatch(p)
			return
		}
		p.step = stepThen
		if b.join(p) {
			p.blocked = b.park
			return
		}
	}
	p.step = stepNone
	if p.rounds > 0 {
		p.step = stepNext
	}
	k.schedule(k.now+p.then, p, nil)
}

// Wake schedules p to resume at the current instant, after every event
// already due now, as barrier releases and resource grants do. The caller
// runs to completion before p does.
func (k *Kernel) Wake(p *Proc) {
	k.schedule(k.now, p, nil)
}
