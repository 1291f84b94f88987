package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// The inline-wait tests pin the conditions under which Proc.Wait may
// return without parking: only the process the run loop resumed, only
// when its own wake would be the next event, and never past a pending
// cancellation.

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

// TestWakeNestedWaitParks wakes a suspended process inline from a
// callback; the process then waits. Its wait must park, not run inline:
// the callback is still dispatching at its own instant and must read the
// same clock after Wake returns.
func TestWakeNestedWaitParks(t *testing.T) {
	k := NewKernel()
	var before, after, resumed Time
	p := k.Spawn("sleeper", func(p *Proc) {
		p.Suspend("test")
		p.Wait(time.Second)
		resumed = p.Now()
	})
	k.After(time.Millisecond, func() {
		before = k.Now()
		k.Wake(p)
		after = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if before != time.Millisecond || after != before {
		t.Errorf("callback read %v before Wake and %v after, want 1ms both", before, after)
	}
	if resumed != time.Second+time.Millisecond {
		t.Errorf("sleeper resumed at %v, want 1.001s", resumed)
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
