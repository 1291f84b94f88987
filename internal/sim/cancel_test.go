package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancelAbortsRun installs a context-backed cancellation check,
// cancels after a few dispatched batches, and requires Run to return the
// context error with every process unwound (their defers run, no live
// processes left).
func TestCancelAbortsRun(t *testing.T) {
	k := NewKernel()
	ctx, cancel := context.WithCancel(context.Background())
	k.SetCancel(ctx.Err)

	unwound := make([]string, 0, 3)
	batches := 0
	k.SetObserver(func(at Time, seq uint64) {
		batches++
		if batches == 10 {
			cancel()
		}
	})
	// Three processes: one ticking forever, one suspended with no waker,
	// one that finishes before the cancel.
	k.Spawn("ticker", func(p *Proc) {
		defer func() { unwound = append(unwound, "ticker") }()
		for {
			p.Wait(time.Millisecond)
		}
	})
	k.Spawn("receiver", func(p *Proc) {
		defer func() { unwound = append(unwound, "receiver") }()
		p.Suspend("never")
	})
	k.Spawn("done-early", func(p *Proc) {
		p.Wait(time.Microsecond)
	})

	err := k.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d after abort, want 0", k.LiveProcs())
	}
	if len(unwound) != 2 {
		t.Errorf("unwound defers = %v, want ticker and receiver", unwound)
	}
}

// TestCancelBeforeRun cancels the context before Run starts: the first
// poll aborts, and processes that never ran still unwind.
func TestCancelBeforeRun(t *testing.T) {
	k := NewKernel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k.SetCancel(ctx.Err)
	ran := false
	k.Spawn("never-runs", func(p *Proc) { ran = true })
	if err := k.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("process body ran despite pre-cancelled context")
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", k.LiveProcs())
	}
}

// TestNoCancelCheckUnchanged pins that a kernel without SetCancel runs to
// completion exactly as before (the poll is skipped entirely).
func TestNoCancelCheckUnchanged(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(time.Microsecond)
			n++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("worker ran %d iterations, want 100", n)
	}
}
