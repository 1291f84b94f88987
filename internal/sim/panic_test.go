package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestProcessPanicReturnsPanicError panics one process while others are
// suspended, parked on a Barrier and in a timed Wait, and one more is due in
// the same instant's batch, after the panicking one. Run must return a
// *PanicError naming the panicking process, after unwinding every other
// process (their defers run, in spawn order) and leaving none of their
// goroutines behind.
func TestProcessPanicReturnsPanicError(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	bar := NewBarrier(k, "phase", 3)
	var unwound []string
	unwind := func(p *Proc) { unwound = append(unwound, p.Name()) }
	k.Spawn("receiver", func(p *Proc) { defer unwind(p); p.Suspend("inbox") })
	k.Spawn("arriver", func(p *Proc) { defer unwind(p); bar.Await(p) })
	k.Spawn("sleeper", func(p *Proc) { defer unwind(p); p.Wait(time.Hour) })
	k.Spawn("buggy", func(p *Proc) {
		p.Wait(time.Second)
		var xs []int
		_ = xs[p.ID()] // index out of range: a model bug
	})
	k.Spawn("napper", func(p *Proc) { defer unwind(p); p.Wait(time.Second) })

	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run() = %v, want *PanicError", err)
	}
	if pe.Proc != "buggy" || pe.Now != time.Second {
		t.Errorf("PanicError names %q at %v, want buggy at 1s", pe.Proc, pe.Now)
	}
	if _, ok := pe.Value.(runtime.Error); !ok {
		t.Errorf("Value = %#v, want the runtime error", pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("TestProcessPanicReturnsPanicError")) {
		t.Errorf("Stack does not reach the panicking body:\n%s", pe.Stack)
	}
	if got := fmt.Sprint(unwound); got != "[receiver arriver sleeper napper]" {
		t.Errorf("unwound = %s, want [receiver arriver sleeper napper]", got)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d after the panic, want 0", k.LiveProcs())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run, want the baseline %d", n, base)
	}
}

// TestCallbackPanicReturnsPanicError panics in an event callback while a
// process is parked: Run returns a *PanicError with no process name and
// still unwinds the process.
func TestCallbackPanicReturnsPanicError(t *testing.T) {
	k := NewKernel()
	unwound := false
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(time.Hour)
	})
	k.After(time.Second, func() { panic("callback bug") })

	var pe *PanicError
	if err := k.Run(); !errors.As(err, &pe) {
		t.Fatalf("Run() = %v, want *PanicError", err)
	}
	if pe.Proc != "" || pe.Value != "callback bug" || pe.Now != time.Second {
		t.Errorf("PanicError = %q %v at %v, want a callback's \"callback bug\" at 1s", pe.Proc, pe.Value, pe.Now)
	}
	if !unwound || k.LiveProcs() != 0 {
		t.Errorf("sleeper unwound = %v, LiveProcs() = %d; want true, 0", unwound, k.LiveProcs())
	}
}
