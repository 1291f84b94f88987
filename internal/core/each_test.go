package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce covers n = 0, workers > n and workers <= 0
// (GOMAXPROCS) beside an ordinary pool.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {3, 8}, {17, 4}, {9, 0}, {9, -2},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", c.n, c.workers), func(t *testing.T) {
			calls := make([]atomic.Int32, c.n)
			if err := Each(c.n, c.workers, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times", i, got)
				}
			}
		})
	}
}

// TestEachBoundsInFlight requires that no more than workers calls run at
// once, and that with enough work the pool reaches that many.
func TestEachBoundsInFlight(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	started := 0
	release := make(chan struct{})
	err := Each(12, workers, func(i int) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		mu.Lock()
		started++
		if started == workers {
			// Every worker holds a call. Give a call beyond the bound
			// time to start before letting them all go.
			go func() {
				time.Sleep(20 * time.Millisecond)
				close(release)
			}()
		}
		mu.Unlock()
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Errorf("peak in-flight calls %d, want %d", got, workers)
	}
}

// TestEachReportsLowestFailingIndex has index 5 fail at once and index 2
// fail only after a wait: Each must still report index 2, after every
// call has finished.
func TestEachReportsLowestFailingIndex(t *testing.T) {
	var failed5 atomic.Bool
	var done atomic.Int32
	err := Each(8, runtime.GOMAXPROCS(0)+8, func(i int) error {
		defer done.Add(1)
		switch i {
		case 5:
			failed5.Store(true)
			return errors.New("index 5")
		case 2:
			for !failed5.Load() {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
			return errors.New("index 2")
		}
		return nil
	})
	if err == nil || err.Error() != "index 2" {
		t.Fatalf("Each returned %v, want index 2's error", err)
	}
	if got := done.Load(); got != 8 {
		t.Errorf("Each returned with %d of 8 calls finished", got)
	}
}
