package sim

import "fmt"

// Resource is a FIFO server with fixed capacity: up to Capacity processes
// hold it simultaneously; further acquirers queue in arrival order. It
// models contended servers such as a disk, a metadata service, or a file
// token.
//
// Acquirers come in two shapes, freely mixed in one FIFO queue:
// process-shaped (Acquire/Release/Use, blocking a *Proc) and
// callback-shaped (UseFn), which takes the kernel's inline dispatch fast
// path — no coroutine switch per grant. Both shapes produce the same
// event sequence, virtual timing, and statistics.
//
// Resource collects utilization and queueing statistics for analysis.
type Resource struct {
	k        *Kernel
	name     string
	park     string // deadlock-diagnostic reason, built once
	capacity int
	busy     int
	waiters  fifo[resWaiter]

	// statistics
	acquisitions uint64
	totalQueue   Time // summed time spent waiting to acquire
	totalHold    Time // summed time between acquire and release
	maxQueueLen  int
	enqueueAt    map[*Proc]Time
	holdSince    map[*Proc]Time
}

// resWaiter is one queued acquirer: a parked process, or a callback-shaped
// holder carrying its hold-pricing and continuation functions.
type resWaiter struct {
	p    *Proc
	hold func() Time
	then func()
	enq  Time
}

// NewResource creates a resource with the given capacity (number of
// concurrent holders). Capacity must be >= 1.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{
		k:         k,
		name:      name,
		park:      "acquire " + name,
		capacity:  capacity,
		enqueueAt: make(map[*Proc]Time),
		holdSince: make(map[*Proc]Time),
	}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// Acquire blocks p until a slot is free, FIFO with respect to other
// acquirers.
func (r *Resource) Acquire(p *Proc) {
	r.enqueueAt[p] = r.k.now
	if r.busy < r.capacity && r.waiters.len() == 0 {
		r.grant(p)
		return
	}
	r.enqueue(resWaiter{p: p})
	p.park(r.park)
	// When we are resumed, release() has already granted us the slot.
}

// enqueue appends a waiter and tracks the queue-length high-water mark.
func (r *Resource) enqueue(w resWaiter) {
	r.waiters.push(w)
	if n := r.waiters.len(); n > r.maxQueueLen {
		r.maxQueueLen = n
	}
}

// grant marks p as a holder and records statistics.
func (r *Resource) grant(p *Proc) {
	r.busy++
	r.acquisitions++
	r.totalQueue += r.k.now - r.enqueueAt[p]
	delete(r.enqueueAt, p)
	r.holdSince[p] = r.k.now
}

// grantFn records the grant of a slot to a callback-shaped holder that
// enqueued at enq.
func (r *Resource) grantFn(enq Time) {
	r.busy++
	r.acquisitions++
	r.totalQueue += r.k.now - enq
}

// UseFn acquires a slot as a callback-shaped holder — FIFO with every
// other acquirer — holds it, releases it, and then runs then (which may
// be nil). hold is invoked once, at grant time, to price the hold
// duration; state-dependent costs (e.g. disk head movement) are therefore
// computed in exactly the same order as with process-shaped Use.
//
// UseFn is the fast-path equivalent of Spawn + Acquire + Wait + Release:
// the whole interaction dispatches inline in the kernel loop with no
// coroutine switches.
func (r *Resource) UseFn(hold func() Time, then func()) {
	if r.busy < r.capacity && r.waiters.len() == 0 {
		r.grantFn(r.k.now)
		r.holdFn(hold, then)
		return
	}
	r.enqueue(resWaiter{hold: hold, then: then, enq: r.k.now})
}

// holdFn runs at grant time for a callback-shaped holder: it prices the
// hold and schedules the release and continuation.
func (r *Resource) holdFn(hold func() Time, then func()) {
	since := r.k.now
	d := hold()
	if d < 0 {
		panic("sim: negative hold on " + r.name)
	}
	r.k.schedule(r.k.now+d, nil, func() {
		r.totalHold += r.k.now - since
		r.busy--
		r.wakeNext()
		if then != nil {
			then()
		}
	})
}

// Release frees the slot held by p, waking the longest-waiting acquirer,
// if any. Releasing a resource p does not hold panics.
func (r *Resource) Release(p *Proc) {
	since, ok := r.holdSince[p]
	if !ok {
		panic(fmt.Sprintf("sim: %s releasing %s it does not hold", p, r.name))
	}
	r.totalHold += r.k.now - since
	delete(r.holdSince, p)
	r.busy--
	r.wakeNext()
}

// wakeNext grants the freed slot to the longest-waiting acquirer, if any.
// Process-shaped waiters are woken through the scheduler; callback-shaped
// waiters get an equivalent same-instant event so both shapes resume at
// identical (at, seq) positions.
func (r *Resource) wakeNext() {
	if r.waiters.len() == 0 {
		return
	}
	next := r.waiters.pop()
	if next.p != nil {
		r.grant(next.p)
		r.k.wake(next.p)
		return
	}
	r.grantFn(next.enq)
	r.k.schedule(r.k.now, nil, func() { r.holdFn(next.hold, next.then) })
}

// Use acquires the resource, holds it for d of virtual time, and releases
// it. It is the common "request service" idiom.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Wait(d)
	r.Release(p)
}

// ResourceStats is a snapshot of a resource's accumulated statistics.
type ResourceStats struct {
	Name         string
	Acquisitions uint64
	TotalQueue   Time // total time spent by all processes waiting
	TotalHold    Time // total time slots were held
	MaxQueueLen  int
}

// Stats returns a snapshot of accumulated statistics.
func (r *Resource) Stats() ResourceStats {
	return ResourceStats{
		Name:         r.name,
		Acquisitions: r.acquisitions,
		TotalQueue:   r.totalQueue,
		TotalHold:    r.totalHold,
		MaxQueueLen:  r.maxQueueLen,
	}
}
