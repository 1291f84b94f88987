package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls run(i) for every i in [0, n) with up to workers calls in
// flight at once and waits for all of them. workers <= 0 means
// GOMAXPROCS, and no more than n goroutines start. It returns the error
// of the lowest failing i, whichever call failed first, so the outcome
// does not depend on scheduling. Each is the one in-process parallel
// runner: the experiment suite, Figure 1's builds and the iobench
// ladders all fan out through it, and each run builds its own
// single-threaded kernel, so results equal serial execution.
func Each(n, workers int, run func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
