package sim

import (
	"testing"
	"time"
)

func TestResourceSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Spawn("p", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if len(finish) != len(want) {
		t.Fatalf("finish = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "array", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Spawn("p", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finishes at 1,1,2,2.
	want := []Time{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "lock", 1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Wait(Time(i) * time.Millisecond) // arrive in index order
			r.Acquire(p)
			order = append(order, i)
			p.Wait(10 * time.Millisecond)
			r.Release(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
}

func TestResourceStats(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "svc", 1)
	for i := 0; i < 3; i++ {
		k.Spawn("p", func(p *Proc) { r.Use(p, time.Second) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Acquisitions != 3 {
		t.Fatalf("Acquisitions = %d, want 3", s.Acquisitions)
	}
	if s.TotalHold != 3*time.Second {
		t.Fatalf("TotalHold = %v, want 3s", s.TotalHold)
	}
	// Arrivals all at t=0; service at 0,1,2 → queue delays 0+1+2 = 3s.
	if s.TotalQueue != 3*time.Second {
		t.Fatalf("TotalQueue = %v, want 3s", s.TotalQueue)
	}
	if s.MaxQueueLen != 2 {
		t.Fatalf("MaxQueueLen = %d, want 2", s.MaxQueueLen)
	}
}

// TestReleaseWithoutHoldPanics releases a resource the process never
// acquired, and one that only another process holds.
func TestReleaseWithoutHoldPanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "lock", 1)
	other := NewResource(k, "other", 1)
	var msgs []any
	release := func(p *Proc) {
		defer func() { msgs = append(msgs, recover()) }()
		r.Release(p)
	}
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Wait(time.Second)
		r.Release(p)
	})
	k.Spawn("p", func(p *Proc) {
		other.Acquire(p) // holds something, just not lock
		release(p)
		other.Release(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "sim: proc 2 (p) releasing lock it does not hold"
	if len(msgs) != 1 || msgs[0] != want {
		t.Fatalf("Release by a non-holder panicked with %v, want [%s]", msgs, want)
	}
	if s := r.Stats(); s.Acquisitions != 1 || s.TotalHold != time.Second {
		t.Errorf("lock stats = %+v, want the holder's one 1s hold", s)
	}
}

// TestBarrierDoubleAwaitPanics resumes a process parked on a barrier
// before the epoch completes; its second Await in the same epoch panics.
func TestBarrierDoubleAwaitPanics(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "phase", 2)
	var msg any
	p := k.Spawn("p", func(p *Proc) {
		defer func() { msg = recover() }()
		b.Await(p)
		b.Await(p)
	})
	k.After(time.Second, func() { k.Wake(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "sim: proc 1 (p) awaited barrier phase twice in one epoch"; msg != want {
		t.Fatalf("second Await panicked with %v, want %q", msg, want)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "sync", 3)
	var times []Time
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Wait(Time(i) * time.Second)
			b.Await(p)
			times = append(times, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, at := range times {
		if at != 2*time.Second {
			t.Fatalf("release times %v, want all 2s", times)
		}
	}
}

func TestBarrierCyclic(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "sync", 4)
	const rounds = 5
	counts := make([]int, rounds)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Wait(Time(i+1) * time.Millisecond)
				b.Await(p)
				counts[r]++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c != 4 {
			t.Fatalf("round %d count = %d, want 4", r, c)
		}
	}
}

func TestBarrierOfOne(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "solo", 1)
	var passed bool
	k.Spawn("p", func(p *Proc) {
		b.Await(p)
		passed = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !passed {
		t.Fatal("single-party barrier blocked")
	}
}
