//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine the kernel resumes with
// next and that hands control back with yield when it parks. The switch
// goes straight from one goroutine to the other (iter.Pull), so exactly
// one process runs at a time and no channel or scheduler run queue sits
// on the path. All Proc methods must be called from the process's own
// body function.
type Proc struct {
	k     *Kernel
	name  string
	id    int
	next  func() (struct{}, bool) // resume: runs the body until it parks or ends
	yield func(struct{}) bool     // park: switches back to whoever called next
	done  bool

	blocked string   // why the process is parked with no pending wake, for deadlock reports
	barrier *Barrier // the barrier the process is parked on, if any
	holds   []held   // the Resource slots the process holds
}

// Spawn creates a new process executing body and schedules it to start at
// the current virtual time. It may be called before Run or from within a
// running process or callback.
//
// A panic in body is wrapped in a *PanicError naming the process and
// carrying its stack, and re-raised in whoever resumed it; Run recovers
// it there and returns it.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, id: len(k.procs) + 1}
	k.procs = append(k.procs, p)
	k.live++
	k.schedule(k.now, p, nil)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			k.live--
			switch r := recover().(type) {
			case nil, procAbort:
			case *PanicError:
				panic(r) // a process this one resumed inline panicked
			default:
				panic(&PanicError{Proc: p.name, Now: k.now, Value: r, Stack: debug.Stack()})
			}
		}()
		if k.aborting {
			return // cancelled before the body ever ran
		}
		body(p)
	})
	return p
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns the process's unique spawn-ordered identifier (1-based).
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }

// Wait suspends the process for d of virtual time. A zero wait yields to
// other events scheduled at the same instant.
//
// When the process's own wake would be the very next event dispatched —
// the run loop resumed it (not Kernel.Wake), nothing is ready at this
// instant and nothing is queued at or before now+d — Wait does what that
// event would do (take its sequence number, count it, advance the clock,
// tell the observer) and returns without parking. A wait that moves the
// clock starts a new instant, so it first polls the cancel check as the
// run loop would; a pending cancellation takes the parking path.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait on " + p.name)
	}
	k := p.k
	at := k.now + d
	if k.current == p && !k.aborting && k.ready.len() == 0 &&
		(k.queue.len() == 0 || k.queue.min().at > at) &&
		(d == 0 || k.checkCancel() == nil) {
		k.seq++
		k.processed++
		k.now = at
		if k.observer != nil {
			k.observer(at, k.seq)
		}
		return
	}
	k.schedule(at, p, nil)
	p.park("")
}

// Suspend parks the process until another event resumes it via
// Kernel.Wake. reason appears in deadlock diagnostics should the resume
// never arrive.
func (p *Proc) Suspend(reason string) {
	if reason == "" {
		reason = "suspended"
	}
	p.park(reason)
}

// park yields control to the kernel until some event resumes this process.
// reason, if non-empty, records why the process is blocked (for deadlock
// diagnostics); parks with a pending wake event pass "".
//
// While the kernel aborts a cancelled or panicked run, park panics with
// procAbort instead of blocking: the resume that woke the process was
// the abort sweep, and any park reached afterwards (e.g. from a deferred
// close running during the unwind) must not yield again.
func (p *Proc) park(reason string) {
	if p.k.aborting {
		panic(procAbort{})
	}
	p.blocked = reason
	p.yield(struct{}{})
	if p.k.aborting {
		panic(procAbort{})
	}
}
