package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
)

// ErrQueueFull is returned by Admitter.AcquireAs when the caller's bounded
// wait queue is already at capacity; handlers map it to 429 + Retry-After.
var ErrQueueFull = errors.New("server: admission queue full")

// Admission kinds label who holds slots: interactive requests (single
// /v1/simulate and /v1/advise runs) and batch sweep points. The split
// exists for observability — the iosimd_slots_held gauge answers "is the
// big sweep crowding out interactive traffic?" at a glance.
const (
	KindInteractive = "interactive"
	KindSweep       = "sweep"
)

// Admitter is the daemon's shared scheduler: a slot pool (slots are
// sized off GOMAXPROCS — one slot ≈ one core) granted from per-client
// FIFO queues. The simulation kernel is single-threaded, so every run
// holds exactly one slot.
//
// Fairness is per client, not global FIFO: waiters queue FIFO within
// their client identity, and grants rotate round-robin across clients —
// a 100-point sweep parked by one client cannot convoy an interactive
// client's single request behind it.
//
// The wait-queue bound applies per client: when a client's queue is
// full, AcquireAs fails fast with ErrQueueFull so the caller can shed
// load instead of stacking it. Sweep-kind waiters are exempt from the
// bound — a sweep is one admitted unit whose point count is already
// capped by the planner, and shedding its internal work items as 429s
// would tear half-finished grids.
type Admitter struct {
	slots    int
	maxQueue int

	mu       sync.Mutex
	free     int
	queues   map[string]*clientQueue
	ring     []string       // clients with waiters, round-robin order
	cursor   int            // next ring index to offer a grant
	waiting  int            // total queued waiters
	held     map[string]int // busy slots by kind
	rejected int64          // acquires shed with ErrQueueFull
}

// AdmitterStats is a snapshot of the admitter: queued waiters, busy
// slots (total and by kind), and rejections since boot.
type AdmitterStats struct {
	Waiting  int
	Busy     int
	Held     map[string]int // busy slots by kind; a caller's copy
	Rejected int64
}

type clientQueue struct {
	waiters []*waiter
}

type waiter struct {
	client string
	kind   string
	ready  chan struct{} // closed when granted
}

// NewAdmitter builds an admission controller with the given slot pool
// and per-client wait-queue bound. slots < 1 and maxQueue < 0 are
// clamped.
func NewAdmitter(slots, maxQueue int) *Admitter {
	if slots < 1 {
		slots = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admitter{
		slots:    slots,
		maxQueue: maxQueue,
		free:     slots,
		queues:   make(map[string]*clientQueue),
		held:     make(map[string]int),
	}
}

// Slots returns the pool size.
func (a *Admitter) Slots() int { return a.slots }

// Stats returns a snapshot of the admitter's queue, slots and
// rejections.
func (a *Admitter) Stats() AdmitterStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmitterStats{
		Waiting:  a.waiting,
		Busy:     a.slots - a.free,
		Held:     maps.Clone(a.held),
		Rejected: a.rejected,
	}
}

// Cost returns a run's slot cost: 1, whatever weight is asked for,
// because the simulation kernel is single-threaded.
func (*Admitter) Cost(weight int) int { return 1 }

// AcquireAs claims one slot on behalf of client, waiting in the
// client's bounded FIFO queue when the pool is busy. It returns a
// release function on success; ErrQueueFull when the client's queue is
// at capacity (never for KindSweep); or ctx.Err() if the context ends
// while waiting. cost is ignored: every run holds one slot.
func (a *Admitter) AcquireAs(ctx context.Context, client, kind string, cost int) (func(), error) {
	a.mu.Lock()
	q := a.queues[client]
	if q == nil {
		q = &clientQueue{}
		a.queues[client] = q
	}
	if kind != KindSweep && len(q.waiters) >= a.maxQueue && !(a.waiting == 0 && a.free > 0) {
		busy := a.slots - a.free
		a.rejected++
		a.mu.Unlock()
		return nil, fmt.Errorf("%w (%d waiting, %d slots busy)", ErrQueueFull, a.maxQueue, busy)
	}
	w := &waiter{client: client, kind: kind, ready: make(chan struct{})}
	if len(q.waiters) == 0 {
		a.ring = append(a.ring, client)
	}
	q.waiters = append(q.waiters, w)
	a.waiting++
	a.grantLocked()
	a.mu.Unlock()

	select {
	case <-w.ready:
		return a.releaseFunc(kind), nil
	case <-ctx.Done():
		a.mu.Lock()
		granted := false
		select {
		case <-w.ready:
			granted = true // grant raced the cancellation; give the slot back
		default:
			a.removeWaiterLocked(w)
		}
		a.mu.Unlock()
		if granted {
			a.releaseFunc(kind)()
		}
		return nil, ctx.Err()
	}
}

// removeWaiterLocked unlinks a still-queued waiter (context cancel).
func (a *Admitter) removeWaiterLocked(w *waiter) {
	q := a.queues[w.client]
	if q == nil {
		return
	}
	for i, cand := range q.waiters {
		if cand == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			a.waiting--
			break
		}
	}
	if len(q.waiters) == 0 {
		a.dropClientLocked(w.client)
	}
}

// dropClientLocked removes an emptied client from the rotation ring.
func (a *Admitter) dropClientLocked(client string) {
	for i, c := range a.ring {
		if c == client {
			a.ring = append(a.ring[:i], a.ring[i+1:]...)
			if i < a.cursor {
				a.cursor--
			}
			break
		}
	}
	if len(a.ring) > 0 {
		a.cursor %= len(a.ring)
	} else {
		a.cursor = 0
	}
	delete(a.queues, client)
}

// releaseFunc returns the idempotent release closure for one slot.
func (a *Admitter) releaseFunc(kind string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.free++
			a.held[kind]--
			a.grantLocked()
			a.mu.Unlock()
		})
	}
}

// grantLocked hands out the free slots: while a slot is free, the head
// of the next client in the round-robin rotation gets it (FIFO within a
// client).
func (a *Admitter) grantLocked() {
	for a.waiting > 0 && a.free > 0 {
		client := a.ring[a.cursor]
		q := a.queues[client]
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		a.waiting--
		a.free--
		a.held[w.kind]++
		if len(q.waiters) == 0 {
			// dropClientLocked leaves the cursor on the next client.
			a.dropClientLocked(client)
		} else {
			a.cursor = (a.cursor + 1) % len(a.ring)
		}
		close(w.ready)
	}
}
