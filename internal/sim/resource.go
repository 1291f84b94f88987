package sim

import "fmt"

// Resource is a FIFO server with fixed capacity: up to Capacity processes
// hold it simultaneously; further acquirers queue in arrival order. It
// models contended servers such as a disk, a metadata service, or a file
// token.
//
// Acquirers come in two shapes, freely mixed in one FIFO queue:
// process-shaped (AcquireThen/Release/Use, blocking a *Proc) and
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
	free     *holder // recycled callback-holder records

	// statistics
	acquisitions uint64
	totalQueue   Time // summed time spent waiting to acquire
	totalHold    Time // summed time between acquire and release
	maxQueueLen  int
}

// resWaiter is one queued acquirer: a parked process, or a callback-shaped
// holder record.
type resWaiter struct {
	p   *Proc
	h   *holder
	enq Time
}

// holder is one callback-shaped acquirer (UseFn) from enqueue to
// release. Records are recycled through their Resource's free list, and
// each record's grant and release steps are bound once, when it is
// first made, so a steady-state UseFn allocates nothing.
type holder struct {
	r     *Resource
	hold  func() Time
	then  func()
	since Time
	next  *holder // free-list link

	// The record's steps, bound once.
	grantFn, doneFn func()
}

// newHolder takes a record off the free list, or makes one.
func (r *Resource) newHolder(hold func() Time, then func()) *holder {
	h := r.free
	if h != nil {
		r.free = h.next
		h.next = nil
	} else {
		h = &holder{r: r}
		h.grantFn, h.doneFn = h.grant, h.done
	}
	h.hold, h.then = hold, then
	return h
}

// NewResource creates a resource with the given capacity (number of
// concurrent holders). Capacity must be >= 1.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, name: name, park: "acquire " + name, capacity: capacity}
}

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// Acquire blocks p until a slot is free, FIFO with respect to other
// acquirers. Product code calls AcquireThen or Use, which build on it;
// tests keep it as the reference AcquireThen is checked against.
func (r *Resource) Acquire(p *Proc) {
	if r.busy < r.capacity && r.waiters.len() == 0 {
		r.grant(r.k.now)
		p.holds = append(p.holds, held{r: r, since: r.k.now})
	} else {
		r.enqueue(resWaiter{p: p, enq: r.k.now})
		p.park(r.park)
		// When we are resumed, wakeNext has already granted us the slot.
	}
}

// AcquireThen is Acquire followed by p.Wait(d): it returns d after the
// grant, holding the slot. An acquirer that queues is not resumed at the
// grant: its wake event makes the wait in its place (Proc.setThen).
func (r *Resource) AcquireThen(p *Proc, d Time) {
	p.setThen(d)
	r.Acquire(p)
	p.waitThen()
}

// enqueue appends a waiter and tracks the queue-length high-water mark.
func (r *Resource) enqueue(w resWaiter) {
	r.waiters.push(w)
	if n := r.waiters.len(); n > r.maxQueueLen {
		r.maxQueueLen = n
	}
}

// grant records the grant of a slot to an acquirer that enqueued at enq.
func (r *Resource) grant(enq Time) {
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
	h := r.newHolder(hold, then)
	if r.busy < r.capacity && r.waiters.len() == 0 {
		r.grant(r.k.now)
		h.grant()
		return
	}
	r.enqueue(resWaiter{h: h, enq: r.k.now})
}

// grant runs at grant time for a callback-shaped holder: it prices the
// hold and schedules the release and continuation.
func (h *holder) grant() {
	r := h.r
	h.since = r.k.now
	d := h.hold()
	if d < 0 {
		panic("sim: negative hold on " + r.name)
	}
	r.k.schedule(r.k.now+d, nil, h.doneFn)
}

// done releases the holder's slot, hands it to the next waiter, returns
// the record to the free list and then runs the continuation, which may
// therefore reuse the record.
func (h *holder) done() {
	r := h.r
	r.totalHold += r.k.now - h.since
	r.busy--
	r.wakeNext()
	then := h.then
	h.hold, h.then = nil, nil
	h.next = r.free
	r.free = h
	if then != nil {
		then()
	}
}

// Release frees the slot held by p, waking the longest-waiting acquirer,
// if any. Releasing a resource p does not hold panics.
func (r *Resource) Release(p *Proc) {
	i := len(p.holds) - 1
	for i >= 0 && p.holds[i].r != r {
		i--
	}
	if i < 0 {
		panic(fmt.Sprintf("sim: %s releasing %s it does not hold", p, r.name))
	}
	r.totalHold += r.k.now - p.holds[i].since
	p.holds = append(p.holds[:i], p.holds[i+1:]...)
	r.busy--
	r.wakeNext()
}

// held is one Resource slot a process holds, and when it was granted.
type held struct {
	r     *Resource
	since Time
}

// wakeNext grants the freed slot to the longest-waiting acquirer, if any.
// A process-shaped waiter holds it from now and is woken through the
// scheduler; a callback-shaped one gets an equivalent same-instant event,
// so both shapes resume at identical (at, seq) positions.
func (r *Resource) wakeNext() {
	if r.waiters.len() == 0 {
		return
	}
	next := r.waiters.pop()
	r.grant(next.enq)
	if next.p != nil {
		next.p.holds = append(next.p.holds, held{r: r, since: r.k.now})
		r.k.Wake(next.p)
		return
	}
	r.k.schedule(r.k.now, nil, next.h.grantFn)
}

// Use acquires the resource, holds it for d of virtual time, and releases
// it. It is the common "request service" idiom.
func (r *Resource) Use(p *Proc, d Time) {
	r.AcquireThen(p, d)
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
