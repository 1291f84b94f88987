package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAdmitterImmediateAndRelease(t *testing.T) {
	a := NewAdmitter(4, 2)
	rel1, err := a.AcquireAs(context.Background(), "", KindInteractive, 3)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.AcquireAs(context.Background(), "", KindInteractive, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	rel1() // release is idempotent
	rel2()
	if rel, err := a.AcquireAs(context.Background(), "", KindInteractive, 4); err != nil {
		t.Fatalf("full pool not reusable after release: %v", err)
	} else {
		rel()
	}
}

// TestAdmitterOneSlotPerRun pins that a run's requested weight does not
// change what it holds: on a 2-slot pool a run acquired at Cost(2) and a
// run acquired at cost 1 hold the pool together, and a third run waits.
func TestAdmitterOneSlotPerRun(t *testing.T) {
	a := NewAdmitter(2, 4)
	if a.Cost(2) != 1 || a.Cost(0) != 1 || a.Cost(64) != 1 {
		t.Error("every weight must cost one slot")
	}
	acquire := func() chan func() {
		ch := make(chan func(), 1)
		go func() {
			r, err := a.AcquireAs(context.Background(), "", KindInteractive, 1)
			if err != nil {
				t.Errorf("acquire: %v", err)
			}
			ch <- r
		}()
		return ch
	}
	relWide, err := a.AcquireAs(context.Background(), "", KindInteractive, a.Cost(2))
	if err != nil {
		t.Fatal(err)
	}
	var relNarrow func()
	select {
	case relNarrow = <-acquire():
	case <-time.After(5 * time.Second):
		t.Fatal("a cost-1 run waited beside a Cost(2) run on a 2-slot pool")
	}
	third := acquire()
	waitQueued(t, a, 1)
	select {
	case <-third:
		t.Fatal("a third run was granted on a full 2-slot pool")
	case <-time.After(50 * time.Millisecond):
	}
	relWide()
	(<-third)()
	relNarrow()
}

// waitQueued blocks until the admitter has depth queued waiters.
func waitQueued(t *testing.T, a *Admitter, depth int) {
	t.Helper()
	for i := 0; a.Stats().Waiting != depth; i++ {
		if i > 1000 {
			t.Fatalf("queue depth %d, want %d", a.Stats().Waiting, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmitterQueueOverflow(t *testing.T) {
	a := NewAdmitter(1, 1)
	rel, err := a.AcquireAs(context.Background(), "", KindInteractive, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue…
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := a.AcquireAs(context.Background(), "", KindInteractive, 1)
		if err != nil {
			t.Errorf("queued acquire failed: %v", err)
			return
		}
		r()
	}()
	// …wait until it is actually queued.
	for i := 0; ; i++ {
		if a.Stats().Waiting == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// …the second overflows.
	if _, err := a.AcquireAs(context.Background(), "", KindInteractive, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire = %v, want ErrQueueFull", err)
	}
	rel()
	<-done
}

func TestAdmitterContextCancelWhileQueued(t *testing.T) {
	a := NewAdmitter(1, 4)
	rel, err := a.AcquireAs(context.Background(), "", KindInteractive, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.AcquireAs(ctx, "", KindInteractive, 1)
		errc <- err
	}()
	for i := 0; ; i++ {
		if a.Stats().Waiting == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	rel()
	// The cancelled waiter must not have left the pool leaked or the
	// queue corrupted.
	rel2, err := a.AcquireAs(context.Background(), "", KindInteractive, 1)
	if err != nil {
		t.Fatalf("pool unusable after cancelled waiter: %v", err)
	}
	rel2()
}

// TestAdmitterRoundRobinAcrossClients pins the rotation: on a 1-slot
// pool, client B's one run queued behind client A's three is granted
// second, not fourth.
func TestAdmitterRoundRobinAcrossClients(t *testing.T) {
	a := NewAdmitter(1, 8)
	rel, err := a.AcquireAs(context.Background(), "hold", KindInteractive, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(name, client string, depth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.AcquireAs(context.Background(), client, KindInteractive, 1)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			r()
		}()
		waitQueued(t, a, depth)
	}
	enqueue("a1", "A", 1)
	enqueue("a2", "A", 2)
	enqueue("a3", "A", 3)
	enqueue("b1", "B", 4)
	rel()
	wg.Wait()
	if got, want := fmt.Sprint(order), "[a1 b1 a2 a3]"; got != want {
		t.Errorf("grant order %s, want %s", got, want)
	}
}

// TestAdmitterConcurrent hammers the pool from many goroutines; under
// -race this pins the locking, and the final free count must equal the
// pool size.
func TestAdmitterConcurrent(t *testing.T) {
	a := NewAdmitter(4, 64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := a.AcquireAs(context.Background(), "", KindInteractive, 1+i%4)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
			rel()
		}(i)
	}
	wg.Wait()
	a.mu.Lock()
	free := a.free
	a.mu.Unlock()
	if free != 4 || a.Stats().Waiting != 0 {
		t.Errorf("pool state after drain: free=%d waiters=%d, want 4/0", free, a.Stats().Waiting)
	}
}
