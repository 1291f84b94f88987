package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("w", func(p *Proc) {
		p.Wait(3 * time.Second)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", at)
	}
}

func TestSequentialWaitsAccumulate(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("w", func(p *Proc) {
		p.Wait(time.Second)
		p.Wait(2 * time.Second)
		p.Wait(500 * time.Millisecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 3500 * time.Millisecond; at != want {
		t.Fatalf("final time %v, want %v", at, want)
	}
}

func TestSameInstantEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Wait(time.Second) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(2 * time.Second)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Wait(3 * time.Second)
				log = append(log, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	// t=2,3,4,6,6; at t=6 b's wake was scheduled earlier (t=3) than a's
	// (t=4), so b fires first.
	want := []string{"a", "b", "a", "b", "a"}
	if len(first) != len(want) {
		t.Fatalf("log = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: nondeterministic log %v", trial, got)
			}
		}
	}
}

func TestAfterCallback(t *testing.T) {
	k := NewKernel()
	var fired Time = -1
	k.Spawn("p", func(p *Proc) {
		k.After(4*time.Second, func() { fired = k.Now() })
		p.Wait(10 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 4*time.Second {
		t.Fatalf("callback at %v, want 4s", fired)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Wait(time.Second)
		k.Spawn("child", func(c *Proc) {
			c.Wait(2 * time.Second)
			childAt = c.Now()
		})
		p.Wait(5 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 3*time.Second {
		t.Fatalf("child finished at %v, want 3s", childAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "lock", 1)
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		// never releases, never waits again — finishes holding the lock
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(time.Second)
		r.Acquire(p) // blocks forever
	})
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter: acquire lock" {
		t.Fatalf("Blocked = %v", dl.Blocked)
	}
}

// TestDeadlockListsEveryParkedProcess parks one process on each
// primitive — a Resource, a Barrier and a Suspend — next to processes
// that finished or hold the resource, and requires the report to list
// exactly the three parked ones, sorted.
func TestDeadlockListsEveryParkedProcess(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	b := NewBarrier(k, "phase", 2)
	k.Spawn("zeta", func(p *Proc) { p.Suspend("inbox") })
	k.Spawn("holder", func(p *Proc) { r.Acquire(p) })
	k.Spawn("alpha", func(p *Proc) { p.Wait(time.Second); r.Acquire(p) })
	k.Spawn("done", func(p *Proc) { p.Wait(time.Second) })
	k.Spawn("mid", func(p *Proc) { b.Await(p) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	want := "[alpha: acquire disk mid: barrier phase zeta: inbox]"
	if got := fmt.Sprint(dl.Blocked); got != want {
		t.Fatalf("Blocked = %s, want %s", got, want)
	}
	if dl.Now != time.Second {
		t.Errorf("deadlock at %v, want 1s", dl.Now)
	}
}

func TestLiveProcsAccounting(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Spawn("p", func(p *Proc) { p.Wait(time.Second) })
	}
	if k.LiveProcs() != 5 {
		t.Fatalf("LiveProcs = %d before run, want 5", k.LiveProcs())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after run, want 0", k.LiveProcs())
	}
}

func TestEventsProcessedCounts(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Wait(time.Second)
		p.Wait(time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// start event + two wake events
	if k.EventsProcessed() != 3 {
		t.Fatalf("EventsProcessed = %d, want 3", k.EventsProcessed())
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := NewKernel()
	var panicked bool
	k.Spawn("p", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		p.Wait(-time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("negative Wait did not panic")
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel()
	p1 := k.Spawn("alpha", func(p *Proc) {})
	p2 := k.Spawn("beta", func(p *Proc) {})
	if p1.Name() != "alpha" || p2.Name() != "beta" {
		t.Fatalf("names: %q %q", p1.Name(), p2.Name())
	}
	if p1.ID() == p2.ID() {
		t.Fatal("IDs not unique")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	k := NewKernel()
	const n = 500
	var finished int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Wait(Time(i+1) * time.Millisecond)
			}
			finished++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
	if k.Now() != 10*Time(n)*time.Millisecond {
		t.Fatalf("final time %v, want %v", k.Now(), 10*Time(n)*time.Millisecond)
	}
}

// TestSuspendWake exercises the Suspend/Wake pair: Wake schedules the
// process at the waking event's instant, so the handler finishes and an
// event it queued earlier at that instant dispatches before the process
// resumes.
func TestSuspendWake(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("sleeper", func(p *Proc) {
		k.After(time.Millisecond, func() {
			order = append(order, "wake-event")
			// Queued before the wake, at the same instant, so it
			// runs before the process resumes.
			k.After(0, func() { order = append(order, "later-event") })
			k.Wake(p)
			order = append(order, "after-wake")
		})
		p.Suspend("test")
		order = append(order, "resumed")
		p.Wait(0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"wake-event", "after-wake", "later-event", "resumed"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSuspendDeadlockDiagnosis checks a never-woken Suspend surfaces in
// the deadlock report with its reason.
func TestSuspendDeadlockDiagnosis(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Suspend("waiting for nothing") })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: waiting for nothing" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// TestHandoffAllocatesNothing pins that a steady-state process handoff
// allocates nothing once the event queue, waiter rings and maps have
// reached their working size: a process doing timed Waits, and a
// capacity-1 Resource passed back and forth between two processes, so
// every acquire parks and every release wakes the other side.
func TestHandoffAllocatesNothing(t *testing.T) {
	t.Run("wait", func(t *testing.T) {
		k := NewKernel()
		allocs := -1.0
		k.Spawn("waiter", func(p *Proc) {
			allocs = testing.AllocsPerRun(1000, func() { p.Wait(time.Microsecond) })
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("timed Wait allocates %v objects per call, want 0", allocs)
		}
	})
	t.Run("resource", func(t *testing.T) {
		k := NewKernel()
		r := NewResource(k, "srv", 1)
		use := func(p *Proc) {
			r.Acquire(p)
			p.Wait(time.Microsecond)
			r.Release(p)
		}
		allocs := -1.0
		measured := false
		k.Spawn("measured", func(p *Proc) {
			allocs = testing.AllocsPerRun(1000, func() { use(p) })
			measured = true
		})
		k.Spawn("rival", func(p *Proc) {
			for !measured {
				use(p)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if s := r.Stats(); s.MaxQueueLen != 1 || s.TotalQueue == 0 {
			t.Fatalf("resource was not contended: %+v", s)
		}
		if allocs != 0 {
			t.Errorf("contended acquire/release allocates %v objects per call, want 0", allocs)
		}
	})
	t.Run("callback", func(t *testing.T) {
		// Two UseFn chains share a capacity-1 resource, so every grant
		// queues behind the other chain's hold. Each chain's hold and
		// then are bound once; each grant recycles a holder record.
		k := NewKernel()
		r := NewResource(k, "srv", 1)
		hold := func() Time { return time.Microsecond }
		left := [2]int{}
		var chains [2]func()
		for i := range chains {
			i := i
			chains[i] = func() {
				if left[i] > 0 {
					left[i]--
					r.UseFn(hold, chains[i])
				}
			}
		}
		grants := func(n int) {
			left = [2]int{n, n}
			k.After(0, chains[0])
			k.After(0, chains[1])
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
		const perRun = 100
		allocs := testing.AllocsPerRun(100, func() { grants(perRun) })
		if s := r.Stats(); s.MaxQueueLen != 1 || s.TotalQueue == 0 {
			t.Fatalf("resource was not contended: %+v", s)
		}
		if allocs != 0 {
			t.Errorf("contended UseFn allocates %v objects per %d grants, want 0", allocs, 2*perRun)
		}
		for h := r.free; h != nil; h = h.next {
			if h.hold != nil || h.then != nil {
				t.Fatal("a recycled holder record keeps its hold or continuation")
			}
		}
	})
}
