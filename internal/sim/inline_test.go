package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// The inline-wait tests pin the conditions under which Proc.Wait may
// return without parking: only when its own wake would be the next
// event, and never past a pending cancellation.

// TestInlineWaitPollsCancel runs a lone process that waits forever —
// every wait takes the inline path — under a cancel check that fires on
// its fifth poll. Run must return that error rather than spin.
func TestInlineWaitPollsCancel(t *testing.T) {
	k := NewKernel()
	stop := errors.New("stop")
	polls := 0
	k.SetCancel(func() error {
		polls++
		if polls >= 5 {
			return stop
		}
		return nil
	})
	k.Spawn("spinner", func(p *Proc) {
		for {
			p.Wait(time.Microsecond)
		}
	})
	if err := k.Run(); !errors.Is(err, stop) {
		t.Fatalf("Run() = %v, want the cancel error", err)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d after abort, want 0", k.LiveProcs())
	}
	// Poll 1 precedes the start event; polls 2-4 let three inline waits
	// through; poll 5 sends the fourth wait down the parking path, and
	// the run loop's next poll aborts before dispatching it.
	if k.Now() != 3*time.Microsecond {
		t.Errorf("aborted at %v, want 3µs", k.Now())
	}
}

// TestInlineWaitKeepsEventStream checks that inline waits consume the
// sequence numbers, counts and observer calls their events would have.
func TestInlineWaitKeepsEventStream(t *testing.T) {
	k := NewKernel()
	var seen []string
	k.SetObserver(func(at Time, seq uint64) { seen = append(seen, fmt.Sprintf("%v/%d", at, seq)) })
	k.Spawn("w", func(p *Proc) {
		p.Wait(time.Second)
		p.Wait(0)
		p.Wait(2 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(seen), "[0s/1 1s/2 1s/3 3s/4]"; got != want {
		t.Errorf("observed %s, want %s", got, want)
	}
	if k.EventsProcessed() != 4 {
		t.Errorf("EventsProcessed() = %d, want 4", k.EventsProcessed())
	}
}

// TestWakeSchedules wakes a suspended process from a callback. The wake
// is an event of its own: the callback finishes first, an event already
// ready at that instant runs before the resume, the resume counts once
// in EventsProcessed, and the woken process's next Wait, with nothing
// else due, completes inline without another switch.
func TestWakeSchedules(t *testing.T) {
	k := NewKernel()
	var order, seen []string
	k.SetObserver(func(at Time, seq uint64) { seen = append(seen, fmt.Sprintf("%v/%d", at, seq)) })
	p := k.Spawn("sleeper", func(p *Proc) {
		p.Suspend("test")
		order = append(order, fmt.Sprintf("resumed@%d", k.EventsProcessed()))
		p.Wait(time.Second)
		order = append(order, "waited")
	})
	resumes := 0
	next := p.next
	p.next = func() (struct{}, bool) { resumes++; return next() }
	k.After(time.Millisecond, func() {
		k.Wake(p)
		order = append(order, fmt.Sprintf("callback@%d", k.EventsProcessed()))
	})
	// Due at the same instant as the callback and scheduled after it, so
	// already on the ready lane when the callback wakes the sleeper.
	k.After(time.Millisecond, func() { order = append(order, "ready") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[callback@2 ready resumed@4 waited]"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(seen), "[0s/1 1ms/2 1ms/3 1ms/4 1.001s/5]"; got != want {
		t.Errorf("observed %s, want %s", got, want)
	}
	if resumes != 2 {
		t.Errorf("sleeper resumed %d times, want 2 (start and wake; the wait completes inline)", resumes)
	}
}

// TestZeroWaitYields checks that Wait(0) lets a process already ready at
// the same instant run first.
func TestZeroWaitYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("first", func(p *Proc) {
		order = append(order, "first:before")
		p.Wait(0)
		order = append(order, "first:after")
	})
	k.Spawn("second", func(p *Proc) { order = append(order, "second") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[first:before second first:after]"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

// TestWaitToQueuedInstantParks has a process wait until exactly the
// instant of an event already on the heap. That event was scheduled
// first, so it must run first.
func TestWaitToQueuedInstantParks(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("w", func(p *Proc) {
		k.After(time.Second, func() { order = append(order, "callback") })
		p.Wait(time.Second)
		order = append(order, "waiter")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[callback waiter]"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}
