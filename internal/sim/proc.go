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
}

// Spawn creates a new process executing body and schedules it to start at
// the current virtual time. It may be called before Run or from within a
// running process or callback.
//
// A panic in body is wrapped in a *PanicError naming the process and
// carrying its stack, and re-raised in whoever resumed it; Run recovers
// it there and returns it.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	k.procSeq++
	p := &Proc{k: k, name: name, id: k.procSeq}
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
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait on " + p.name)
	}
	p.k.schedule(p.k.now+d, p, nil)
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
	if reason != "" {
		p.k.blocked[p] = reason
	}
	p.yield(struct{}{})
	if p.k.aborting {
		panic(procAbort{})
	}
}
