package server

import (
	"context"
	"errors"
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

func TestAdmitterCostClamp(t *testing.T) {
	a := NewAdmitter(4, 0)
	if a.Cost(0) != 1 || a.Cost(-3) != 1 {
		t.Error("sub-slot costs must clamp to 1")
	}
	if a.Cost(64) != 4 {
		t.Error("cost beyond pool must clamp to the pool size")
	}
	rel, err := a.AcquireAs(context.Background(), "", KindInteractive, 64) // wants more than the pool has
	if err != nil {
		t.Fatalf("clamped acquire failed: %v", err)
	}
	rel()
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
		if a.QueueLen() == 1 {
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
		if a.QueueLen() == 1 {
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

// TestAdmitterFIFOWeighted pins the fairness contract: a narrow waiter
// queued behind a wide one stays blocked while the wide one waits, even
// when enough slots free up for the narrow one to squeeze in.
func TestAdmitterFIFOWeighted(t *testing.T) {
	a := NewAdmitter(4, 8)
	relA, err := a.AcquireAs(context.Background(), "", KindInteractive, 2)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := a.AcquireAs(context.Background(), "", KindInteractive, 2)
	if err != nil {
		t.Fatal(err)
	}
	enqueue := func(name string, need, depth int) chan struct{} {
		ch := make(chan struct{})
		go func() {
			defer close(ch)
			r, err := a.AcquireAs(context.Background(), "", KindInteractive, need)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			r()
		}()
		for i := 0; ; i++ {
			if a.QueueLen() == depth {
				return ch
			}
			if i > 1000 {
				t.Fatalf("%s never queued", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wide := enqueue("wide", 3, 1)
	narrow := enqueue("narrow", 1, 2)
	// Free 2 slots: not enough for wide (head of line), and narrow must
	// NOT jump it even though one slot would suffice.
	relA()
	select {
	case <-narrow:
		t.Fatal("narrow waiter jumped the wide head-of-line waiter")
	case <-wide:
		t.Fatal("wide waiter granted with insufficient slots")
	case <-time.After(50 * time.Millisecond):
	}
	relB()
	<-wide
	<-narrow
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
	if free != 4 || a.QueueLen() != 0 {
		t.Errorf("pool state after drain: free=%d waiters=%d, want 4/0", free, a.QueueLen())
	}
}
