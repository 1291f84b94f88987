package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The deferred-wait tests pin the contract of Barrier.AwaitThen and
// Resource.AcquireThen: each must be indistinguishable from the
// two-step form it fuses (Await then Wait, Acquire then Wait) in the
// kernel's (at, seq) stream, its event count and clock, the resource's
// statistics and the order and times at which processes run, and must
// unwind, report deadlocks and panic the way the two-step form does.

// thenRun is everything an equivalence test compares between the
// two-step and the fused run of one scenario.
type thenRun struct {
	Stream []string // observer (at, seq) in dispatch order
	Events uint64
	Now    Time
	Err    string
	Live   int
	Stats  []ResourceStats
	Marks  []string // each process step and unwind, in the order they ran
}

// thenScenario is a randomised mix of parties, delays and background
// traffic. Delays come from a small set so that arrivals, releases and
// background events collide at one instant as often as they miss.
type thenScenario struct {
	parties, rounds int
	capacity        int      // resource slots; 0 selects the barrier scenario
	compute, after  [][]Time // per party and round: the wait before, and d
	noise           []Time   // one background process's successive waits
	callbacks       []Time   // one-shot callbacks (UseFn holders in the resource scenario)
	cancelAt        int      // raise the cancel flag at this observer call; 0 never
}

var thenDelays = []Time{0, 0, time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond}

func newThenScenario(rng *rand.Rand, resource bool) thenScenario {
	pick := func() Time { return thenDelays[rng.Intn(len(thenDelays))] }
	grid := func(n, m int) [][]Time {
		g := make([][]Time, n)
		for i := range g {
			g[i] = make([]Time, m)
			for j := range g[i] {
				g[i][j] = pick()
			}
		}
		return g
	}
	s := thenScenario{parties: 1 + rng.Intn(8), rounds: 1 + rng.Intn(4)}
	if resource {
		s.capacity = 1 + rng.Intn(3)
	}
	s.compute, s.after = grid(s.parties, s.rounds), grid(s.parties, s.rounds)
	for i := rng.Intn(6); i > 0; i-- {
		s.noise = append(s.noise, pick())
		s.callbacks = append(s.callbacks, pick()+pick())
	}
	if rng.Intn(3) == 0 {
		s.cancelAt = 1 + rng.Intn(40)
	}
	return s
}

// run executes the scenario with the two-step form (fused false) or the
// fused form.
func (s thenScenario) run(fused bool) thenRun {
	k := NewKernel()
	var out thenRun
	stop := errors.New("stop")
	cancelled := false
	k.SetCancel(func() error {
		if cancelled {
			return stop
		}
		return nil
	})
	k.SetObserver(func(at Time, seq uint64) {
		out.Stream = append(out.Stream, fmt.Sprintf("%v/%d", at, seq))
		cancelled = cancelled || len(out.Stream) == s.cancelAt
	})
	mark := func(p *Proc, what string) {
		out.Marks = append(out.Marks, fmt.Sprintf("%s %s @%v", p.Name(), what, p.Now()))
	}

	var step func(p *Proc, d Time)
	var r *Resource
	if s.capacity == 0 {
		b := NewBarrier(k, "phase", s.parties)
		step = func(p *Proc, d Time) {
			if fused {
				b.AwaitThen(p, d)
			} else {
				b.Await(p)
				p.Wait(d)
			}
		}
	} else {
		r = NewResource(k, "srv", s.capacity)
		step = func(p *Proc, d Time) {
			if fused {
				r.AcquireThen(p, d)
			} else {
				r.Acquire(p)
				p.Wait(d)
			}
			mark(p, "holds")
			r.Release(p)
		}
		for _, d := range s.callbacks {
			d := d
			k.After(d, func() { r.UseFn(func() Time { return d }, nil) })
		}
	}
	if r == nil {
		for _, d := range s.callbacks {
			k.After(d, func() {})
		}
	}
	for i := 0; i < s.parties; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer mark(p, "exits")
			for j := 0; j < s.rounds; j++ {
				p.Wait(s.compute[i][j])
				step(p, s.after[i][j])
				mark(p, fmt.Sprint("round ", j))
			}
		})
	}
	k.Spawn("noise", func(p *Proc) {
		defer mark(p, "exits")
		for _, d := range s.noise {
			p.Wait(d)
		}
	})

	if err := k.Run(); err != nil {
		out.Err = err.Error()
	}
	out.Events, out.Now, out.Live = k.EventsProcessed(), k.Now(), k.LiveProcs()
	if r != nil {
		out.Stats = append(out.Stats, r.Stats())
	}
	return out
}

func testThenEquivalence(t *testing.T, resource bool) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		s := newThenScenario(rng, resource)
		want, got := s.run(false), s.run(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v):\nfused    %+v\ntwo-step %+v", trial, s, got, want)
		}
	}
}

// TestAwaitThenMatchesAwaitWait drives randomised party counts, delays
// (zero included), background traffic and cancellations through Await
// then Wait and through AwaitThen, and requires identical runs.
func TestAwaitThenMatchesAwaitWait(t *testing.T) { testThenEquivalence(t, false) }

// TestAcquireThenMatchesAcquireWait does the same for Acquire then Wait
// against AcquireThen, with callback holders sharing the FIFO queue and
// the resource's statistics compared too.
func TestAcquireThenMatchesAcquireWait(t *testing.T) { testThenEquivalence(t, true) }

// TestAcquireThenHoldStartsAtGrant pins that a queued acquirer holds
// its slot from the grant, not from the end of its wait: two acquirers
// of a one-slot resource, the second granted at 3s, each holding it 3s
// then releasing, account 6s of hold.
func TestAcquireThenHoldStartsAtGrant(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1)
	var done []Time
	for i := 0; i < 2; i++ {
		k.Spawn("u", func(p *Proc) {
			r.AcquireThen(p, 3*time.Second)
			r.Release(p)
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(done) != "[3s 6s]" {
		t.Errorf("releases at %v, want [3s 6s]", done)
	}
	want := ResourceStats{Name: "srv", Acquisitions: 2, TotalQueue: 3 * time.Second, TotalHold: 6 * time.Second, MaxQueueLen: 1}
	if s := r.Stats(); s != want {
		t.Errorf("Stats() = %+v, want %+v", s, want)
	}
}

// thenParked spawns parties that park in AwaitThen and AcquireThen: two
// acquirers queued behind a holder that releases at 1s, and two parties
// of a three-party barrier that the holder then completes, at 1s too.
// The 1s instant thus grants the first acquirer and releases both
// parties; the second acquirer stays queued.
func thenParked(k *Kernel, unwound *[]string) {
	b := NewBarrier(k, "phase", 3)
	r := NewResource(k, "lock", 1)
	unwind := func(p *Proc) { *unwound = append(*unwound, p.Name()) }
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(p *Proc) { defer unwind(p); b.AwaitThen(p, time.Hour) })
	}
	k.Spawn("holder", func(p *Proc) {
		defer unwind(p)
		r.AcquireThen(p, time.Second)
		r.Release(p)
		b.AwaitThen(p, time.Hour)
	})
	for _, name := range []string{"c", "d"} {
		k.Spawn(name, func(p *Proc) { defer unwind(p); r.AcquireThen(p, time.Hour) })
	}
}

// TestThenUnwindsOnPanic panics a process in the instant that releases
// the barrier and grants the lock, before the woken parties' wake events
// are dispatched: Run returns its *PanicError and every party parked in
// AwaitThen or AcquireThen is unwound, its defers run, with no process
// or goroutine left.
func TestThenUnwindsOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	var unwound []string
	thenParked(k, &unwound)
	k.Spawn("buggy", func(p *Proc) {
		p.Wait(time.Second)
		panic("model bug")
	})
	var pe *PanicError
	if err := k.Run(); !errors.As(err, &pe) || pe.Proc != "buggy" {
		t.Fatalf("Run() = %v, want buggy's *PanicError", err)
	}
	if got := fmt.Sprint(unwound); got != "[a b holder c d]" {
		t.Errorf("unwound = %s, want [a b holder c d]", got)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", k.LiveProcs())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run, want the baseline %d", n, base)
	}
}

// TestThenUnwindsOnCancel cancels the same set-up at the first poll
// after the 1s instant, when the woken parties' waits are scheduled and
// the second acquirer is still queued: all of them unwind.
func TestThenUnwindsOnCancel(t *testing.T) {
	k := NewKernel()
	stop := errors.New("stop")
	k.SetCancel(func() error {
		if k.Now() >= time.Second {
			return stop
		}
		return nil
	})
	var unwound []string
	thenParked(k, &unwound)
	if err := k.Run(); !errors.Is(err, stop) {
		t.Fatalf("Run() = %v, want the cancel error", err)
	}
	if k.Now() != time.Second {
		t.Errorf("aborted at %v, want 1s", k.Now())
	}
	if got := fmt.Sprint(unwound); got != "[a b holder c d]" {
		t.Errorf("unwound = %s, want [a b holder c d]", got)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", k.LiveProcs())
	}
}

// TestThenDeadlockNamesReason leaves parties parked in AwaitThen and
// AcquireThen forever: the report names each by its barrier or acquire
// reason, as for Await and Acquire.
func TestThenDeadlockNamesReason(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "phase", 3)
	r := NewResource(k, "lock", 1)
	k.Spawn("one", func(p *Proc) { b.AwaitThen(p, time.Second) })
	k.Spawn("two", func(p *Proc) { p.Wait(time.Second); b.AwaitThen(p, 0) })
	k.Spawn("holder", func(p *Proc) { r.AcquireThen(p, 0) })
	k.Spawn("three", func(p *Proc) { r.AcquireThen(p, time.Second) })
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	want := "[one: barrier phase three: acquire lock two: barrier phase]"
	if got := fmt.Sprint(dl.Blocked); got != want {
		t.Errorf("Blocked = %s, want %s", got, want)
	}
}

// TestThenPanicMessages pins the double-await and negative-wait panics
// of the fused forms to the two-step forms' messages.
func TestThenPanicMessages(t *testing.T) {
	cases := []struct {
		name string
		body func(k *Kernel, p *Proc)
		want string
	}{
		{"double AwaitThen", func(k *Kernel, p *Proc) {
			b := NewBarrier(k, "phase", 2)
			k.After(time.Second, func() { k.Wake(p) })
			b.AwaitThen(p, time.Second)
			b.AwaitThen(p, time.Second)
		}, "sim: proc 1 (p) awaited barrier phase twice in one epoch"},
		{"negative AwaitThen", func(k *Kernel, p *Proc) {
			NewBarrier(k, "phase", 2).AwaitThen(p, -1)
		}, "sim: negative wait on p"},
		{"negative AcquireThen", func(k *Kernel, p *Proc) {
			NewResource(k, "lock", 1).AcquireThen(p, -1)
		}, "sim: negative wait on p"},
	}
	for _, c := range cases {
		k := NewKernel()
		var msg any
		k.Spawn("p", func(p *Proc) {
			defer func() { msg = recover() }()
			c.body(k, p)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("%s: Run() = %v", c.name, err)
		}
		if msg != c.want {
			t.Errorf("%s panicked with %v, want %q", c.name, msg, c.want)
		}
	}
}
