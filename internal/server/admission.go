package server

import (
	"context"
	"errors"
	"fmt"
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

// Weight classes bucket a run's slot cost for the per-class queue-depth
// gauges: narrow one-slot runs, medium runs of a few slots, and wide runs
// that occupy most of the pool.
func costClass(cost int) string {
	switch {
	case cost <= 1:
		return "narrow"
	case cost <= 4:
		return "medium"
	default:
		return "wide"
	}
}

// costClasses lists every weight class, for gauge refreshes.
var costClasses = []string{"narrow", "medium", "wide"}

// Admitter is the daemon's shared cost-aware scheduler: a weighted slot
// pool (slots are sized off GOMAXPROCS — one slot ≈ one core the engine
// may occupy) packed continuously from per-client FIFO queues.
//
// Each run acquires a cost: one slot by default, or the weight its
// request asks for (the shards field), clamped to the pool — a client
// can mark a run heavy so fewer run beside it.
//
// Fairness is per client, not global FIFO: waiters queue FIFO within
// their client identity, and grants rotate round-robin across clients —
// a 100-point sweep parked by one client cannot convoy an interactive
// client's single request behind it. Within the rotation the pool stays
// work-conserving (any head that fits the free slots runs), with one
// guard against starving wide requests: a head that has been passed
// over too many times reserves the pool until it fits, bounding how
// long narrow runs can leapfrog it.
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
	ring     []string // clients with waiters, round-robin order
	cursor   int      // next ring index to offer a grant
	reserved *waiter  // starving head: while set, only it may be granted
	waiting  int      // total queued waiters
	byClass  map[string]int
	held     map[string]int // busy slots by kind

	// Optional observability hooks (nil-safe): queue depth (total and
	// per weight class), busy slots (total and per kind), rejections.
	onQueueDepth func(int64)
	onClassDepth func(class string, depth int64)
	onInFlight   func(int64)
	onHeldKind   func(kind string, held int64)
	onReject     func()
}

type clientQueue struct {
	waiters []*waiter
}

type waiter struct {
	client  string
	kind    string
	need    int
	skipped int           // grants to other clients while this head could not fit
	ready   chan struct{} // closed when granted
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
		byClass:  make(map[string]int),
		held:     make(map[string]int),
	}
}

// Slots returns the pool size.
func (a *Admitter) Slots() int { return a.slots }

// QueueLen returns the total number of queued waiters across clients.
func (a *Admitter) QueueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting
}

// Cost clamps a requested weight to an admissible slot cost.
func (a *Admitter) Cost(weight int) int {
	if weight < 1 {
		weight = 1
	}
	if weight > a.slots {
		weight = a.slots
	}
	return weight
}

// AcquireAs claims cost slots on behalf of client, waiting in the
// client's bounded FIFO queue when the pool is busy. It returns a
// release function on success; ErrQueueFull when the client's queue is
// at capacity (never for KindSweep); or ctx.Err() if the context ends
// while waiting. cost is clamped to the pool size.
func (a *Admitter) AcquireAs(ctx context.Context, client, kind string, cost int) (func(), error) {
	cost = a.Cost(cost)
	a.mu.Lock()
	q := a.queues[client]
	if q == nil {
		q = &clientQueue{}
		a.queues[client] = q
	}
	if kind != KindSweep && len(q.waiters) >= a.maxQueue && !(a.waiting == 0 && a.free >= cost) {
		busy := a.slots - a.free
		a.mu.Unlock()
		if a.onReject != nil {
			a.onReject()
		}
		return nil, fmt.Errorf("%w (%d waiting, %d slots busy)", ErrQueueFull, a.maxQueue, busy)
	}
	w := &waiter{client: client, kind: kind, need: cost, ready: make(chan struct{})}
	if len(q.waiters) == 0 {
		a.ring = append(a.ring, client)
	}
	q.waiters = append(q.waiters, w)
	a.waiting++
	a.byClass[costClass(cost)]++
	a.grantLocked()
	a.observeLocked()
	a.mu.Unlock()

	select {
	case <-w.ready:
		return a.releaseFunc(kind, cost), nil
	case <-ctx.Done():
		a.mu.Lock()
		granted := false
		select {
		case <-w.ready:
			granted = true // grant raced the cancellation; give the slots back
		default:
			a.removeWaiterLocked(w)
		}
		a.observeLocked()
		a.mu.Unlock()
		if granted {
			a.releaseFunc(kind, cost)()
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
			a.byClass[costClass(w.need)]--
			break
		}
	}
	if len(q.waiters) == 0 {
		a.dropClientLocked(w.client)
	}
	if a.reserved == w {
		a.reserved = nil
		a.grantLocked()
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

// releaseFunc returns the idempotent release closure for cost slots.
func (a *Admitter) releaseFunc(kind string, cost int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.free += cost
			a.held[kind] -= cost
			a.grantLocked()
			a.observeLocked()
			a.mu.Unlock()
		})
	}
}

// reserveAfter is the starvation bound: once a head has been passed
// over by this many grants to other clients, it reserves the pool.
func (a *Admitter) reserveAfter() int { return 2 * a.slots }

// grantLocked packs the free slots from the per-client queues: grants
// rotate round-robin across clients (FIFO within a client), any head
// that fits runs, and a head skipped reserveAfter times reserves the
// pool until it fits.
func (a *Admitter) grantLocked() {
	for a.waiting > 0 {
		if a.reserved != nil {
			if a.free < a.reserved.need {
				return // pool drains until the starving head fits
			}
			w := a.reserved
			a.reserved = nil
			a.grantWaiterLocked(w)
			continue
		}
		grantedIdx := -1
		for i := 0; i < len(a.ring); i++ {
			idx := (a.cursor + i) % len(a.ring)
			head := a.queues[a.ring[idx]].waiters[0]
			if a.free >= head.need {
				grantedIdx = idx
				break
			}
		}
		if grantedIdx < 0 {
			return // nothing fits; wait for a release
		}
		client := a.ring[grantedIdx]
		w := a.queues[client].waiters[0]
		// Age every other head that still cannot fit after this grant;
		// one of them crossing the threshold reserves the pool.
		for _, c := range a.ring {
			if c == client {
				continue
			}
			head := a.queues[c].waiters[0]
			if a.free-w.need < head.need {
				head.skipped++
				if head.skipped >= a.reserveAfter() && a.reserved == nil {
					a.reserved = head
				}
			}
		}
		a.grantWaiterLocked(w)
		// Advance the rotation past the granted client (when the grant
		// emptied the client, dropClientLocked already fixed the cursor).
		for i, c := range a.ring {
			if c == client {
				a.cursor = (i + 1) % len(a.ring)
				break
			}
		}
	}
}

// grantWaiterLocked pops w from its client queue and hands it slots.
func (a *Admitter) grantWaiterLocked(w *waiter) {
	q := a.queues[w.client]
	q.waiters = q.waiters[1:]
	a.waiting--
	a.byClass[costClass(w.need)]--
	a.free -= w.need
	a.held[w.kind] += w.need
	if len(q.waiters) == 0 {
		a.dropClientLocked(w.client)
	}
	close(w.ready)
}

// observeLocked pushes queue depth (total and per class) and busy-slot
// counts (total and per kind) to the hooks.
func (a *Admitter) observeLocked() {
	if a.onQueueDepth != nil {
		a.onQueueDepth(int64(a.waiting))
	}
	if a.onClassDepth != nil {
		for _, class := range costClasses {
			a.onClassDepth(class, int64(a.byClass[class]))
		}
	}
	if a.onInFlight != nil {
		a.onInFlight(int64(a.slots - a.free))
	}
	if a.onHeldKind != nil {
		for _, kind := range []string{KindInteractive, KindSweep} {
			a.onHeldKind(kind, int64(a.held[kind]))
		}
	}
}
