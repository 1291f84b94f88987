package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The rounds tests pin the contract of Barrier.Rounds: its rounds must
// be indistinguishable from the step-by-step loop of a drawn compute
// wait, Await and Wait(then) — written as Wait then AwaitThen — in the
// kernel's (at, seq) stream, event count and clock, in the order and
// times at which compute times are drawn, and in how the run ends; it
// must resume the process once, after its last round, allocate nothing
// per round, and unwind, report deadlocks and panic the way the
// step-by-step loop does.

// The forms a party runs its rounds in.
const (
	formSteps  = iota // Wait(draw()) then AwaitThen, per round
	formOne           // Rounds(p, 1, ...) per round
	formRounds        // one Rounds(p, rounds, ...) call

	// barrierResumes' extra form: Wait then AwaitThen, with Await's
	// then-wait deferred but the compute's end resuming the party.
	formThen = -1
)

// roundsScenario is a randomised mix of parties, each with its own
// compute times and cost, plus background traffic and cancellations.
// Delays come from a small set so that arrivals, releases and other
// events collide at one instant as often as they miss.
type roundsScenario struct {
	parties, rounds int
	forms           []int    // per party, in the fused run
	compute         [][]Time // per party and round: the drawn compute time
	cost            []Time   // per party: the wait after each release
	noise           []Time   // one background process's successive waits
	callbacks       []Time   // one-shot callbacks
	cancelAt        int      // raise the cancel flag at this observer call; 0 never
}

func newRoundsScenario(rng *rand.Rand) roundsScenario {
	pick := func() Time { return thenDelays[rng.Intn(len(thenDelays))] }
	s := roundsScenario{parties: 1 + rng.Intn(8), rounds: 1 + rng.Intn(5)}
	for i := 0; i < s.parties; i++ {
		s.forms = append(s.forms, rng.Intn(3))
		s.cost = append(s.cost, pick())
		row := make([]Time, s.rounds)
		for j := range row {
			row[j] = pick()
		}
		s.compute = append(s.compute, row)
	}
	for i := rng.Intn(6); i > 0; i-- {
		s.noise = append(s.noise, pick())
		s.callbacks = append(s.callbacks, pick()+pick())
	}
	if rng.Intn(3) == 0 {
		s.cancelAt = 1 + rng.Intn(60)
	}
	return s
}

// run executes the scenario with every party step by step (fused
// false) or each in its own form.
func (s roundsScenario) run(fused bool) thenRun {
	k := NewKernel()
	var out thenRun
	stop := errors.New("stop")
	cancelled := false
	k.SetCancel(func() error {
		if cancelled {
			return stop
		}
		return nil
	})
	k.SetObserver(func(at Time, seq uint64) {
		out.Stream = append(out.Stream, fmt.Sprintf("%v/%d", at, seq))
		cancelled = cancelled || len(out.Stream) == s.cancelAt
	})
	mark := func(p *Proc, what string) {
		out.Marks = append(out.Marks, fmt.Sprintf("%s %s @%v", p.Name(), what, p.Now()))
	}
	b := NewBarrier(k, "step", s.parties)
	for _, d := range s.callbacks {
		k.After(d, func() {})
	}
	for i := 0; i < s.parties; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer mark(p, "exits")
			j := 0
			draw := func() Time {
				mark(p, fmt.Sprint("draws ", j))
				j++
				return s.compute[i][j-1]
			}
			form := formSteps
			if fused {
				form = s.forms[i]
			}
			switch form {
			case formRounds:
				b.Rounds(p, s.rounds, draw, s.cost[i])
			case formOne:
				for r := 0; r < s.rounds; r++ {
					b.Rounds(p, 1, draw, s.cost[i])
				}
			default:
				for r := 0; r < s.rounds; r++ {
					p.Wait(draw())
					b.AwaitThen(p, s.cost[i])
				}
			}
			mark(p, "done")
		})
	}
	k.Spawn("noise", func(p *Proc) {
		defer mark(p, "exits")
		for _, d := range s.noise {
			p.Wait(d)
		}
	})
	if err := k.Run(); err != nil {
		out.Err = err.Error()
	}
	out.Events, out.Now, out.Live = k.EventsProcessed(), k.Now(), k.LiveProcs()
	return out
}

// TestRoundsMatchStepByStep drives randomised parties, delays (zero
// included), background traffic and cancellations through the
// step-by-step loop and through a per-party mix of the step-by-step
// loop, one-round Rounds calls and one Rounds call for all rounds, so
// that arrivals the run loop makes and arrivals processes make share
// barrier epochs. The runs must be identical.
func TestRoundsMatchStepByStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cancels := 0
	for trial := 0; trial < 600; trial++ {
		s := newRoundsScenario(rng)
		want, got := s.run(false), s.run(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v):\nrounds       %+v\nstep by step %+v", trial, s, got, want)
		}
		if want.Err != "" {
			cancels++
		}
	}
	if cancels < 50 {
		t.Errorf("only %d of 600 trials were cancelled; the scenarios no longer exercise cancellation", cancels)
	}
}

// countResumes wraps p's resume so that every coroutine switch into p
// increments *n.
func countResumes(p *Proc, n *int) {
	next := p.next
	p.next = func() (struct{}, bool) { *n++; return next() }
}

// barrierResumes counts coroutine resumes: four parties staggered over
// three epochs, each computing ID µs, then arriving, then, once
// released, waiting 1µs that cannot complete inline (the other parties'
// wakes come first), every round in the given form.
func barrierResumes(t *testing.T, form int) int {
	k := NewKernel()
	b := NewBarrier(k, "phase", 4)
	n := 0
	for i := 0; i < 4; i++ {
		p := k.Spawn("p", func(p *Proc) {
			compute := Time(p.ID()) * time.Microsecond
			draw := func() Time { return compute }
			switch form {
			case formRounds:
				b.Rounds(p, 3, draw, time.Microsecond)
				return
			case formOne:
				for e := 0; e < 3; e++ {
					b.Rounds(p, 1, draw, time.Microsecond)
				}
				return
			}
			for e := 0; e < 3; e++ {
				p.Wait(compute)
				if form == formThen {
					b.AwaitThen(p, time.Microsecond)
				} else {
					b.Await(p)
					p.Wait(time.Microsecond)
				}
			}
		})
		countResumes(p, &n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRoundsResumeCount pins the exact resume counts of the
// barrierResumes run. Every compute wait parks (another party's event
// comes first), so step by step each party is resumed at its spawn, then
// per epoch at the end of its compute, at the release unless it arrived
// last, and at the end of its 1µs: 4 + 3 × (4 + 3 + 4) = 37. AwaitThen
// drops the release resumes: 4 + 3 × 8 = 28. One-round Rounds calls also
// drop the compute-end resumes, since the run loop makes each arrival:
// 4 + 3 × 4 = 16. One Rounds call for all three drops the resumes
// between rounds too: each party is resumed at its spawn and after its
// last round, 4 + 4 = 8.
func TestRoundsResumeCount(t *testing.T) {
	got := [4]int{
		barrierResumes(t, formSteps), barrierResumes(t, formThen),
		barrierResumes(t, formOne), barrierResumes(t, formRounds),
	}
	if want := [4]int{37, 28, 16, 8}; got != want {
		t.Errorf("resumes step by step, AwaitThen, one-round, all rounds = %v, want %v", got, want)
	}
}

// TestAwaitThenSkipsResume requires AwaitThen to resume each party
// released from a park once fewer than Await then Wait does: 3 parked
// parties × 3 epochs = 9 fewer.
func TestAwaitThenSkipsResume(t *testing.T) {
	if two, fused := barrierResumes(t, formSteps), barrierResumes(t, formThen); two-fused != 9 {
		t.Errorf("resumes: Await then Wait %d, AwaitThen %d; want 9 fewer", two, fused)
	}
}

// runRounds runs parties processes through rounds rounds each, in one
// Rounds call per party (or one per round, with one true), each draw
// bound once per process. It is the body TestRoundsAllocateNothing
// counts allocations over.
func runRounds(tb testing.TB, parties, rounds int, one bool) {
	k := NewKernel()
	b := NewBarrier(k, "step", parties)
	for i := 0; i < parties; i++ {
		compute := Time(i%3+1) * time.Microsecond
		k.Spawn("p", func(p *Proc) {
			draw := func() Time { return compute }
			if !one {
				b.Rounds(p, rounds, draw, time.Microsecond)
				return
			}
			for r := 0; r < rounds; r++ {
				b.Rounds(p, 1, draw, time.Microsecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestRoundsAllocateNothing pins zero allocations per warm round: a
// run of 8 parties allocates as much over 1,010 rounds as over 10, in
// one Rounds call per party and in one call per round.
func TestRoundsAllocateNothing(t *testing.T) {
	for _, one := range []bool{false, true} {
		short := testing.AllocsPerRun(5, func() { runRounds(t, 8, 10, one) })
		long := testing.AllocsPerRun(5, func() { runRounds(t, 8, 1010, one) })
		if long != short {
			t.Errorf("one-round calls %v: %v allocations over 10 rounds, %v over 1,010: %.3f per round, want 0",
				one, short, long, (long-short)/1000)
		}
	}
}

// roundsParked spawns parties of Rounds in every state the run loop
// leaves them in at 1s, each with rounds to spare: a in a compute wait
// that ends at 2s; b arrived by the loop at 500ms on a barrier that
// never completes; c and d on a pair barrier whose 1s epoch c's arrival
// releases, with their hour-long cost waits still to come; e in a cost
// wait that ends at 1.5s, after which the loop would start its next
// round.
func roundsParked(k *Kernel, unwound *[]string) {
	phase := NewBarrier(k, "phase", 3)
	pair := NewBarrier(k, "pair", 2)
	solo := NewBarrier(k, "solo", 1)
	unwind := func(p *Proc) { *unwound = append(*unwound, p.Name()) }
	fixed := func(d Time) func() Time { return func() Time { return d } }
	k.Spawn("a", func(p *Proc) { defer unwind(p); phase.Rounds(p, 5, fixed(2*time.Second), time.Hour) })
	k.Spawn("b", func(p *Proc) { defer unwind(p); phase.Rounds(p, 5, fixed(time.Second/2), time.Hour) })
	k.Spawn("c", func(p *Proc) { defer unwind(p); pair.Rounds(p, 5, fixed(time.Second), time.Hour) })
	k.Spawn("d", func(p *Proc) { defer unwind(p); pair.Rounds(p, 5, fixed(time.Second/2), time.Hour) })
	k.Spawn("e", func(p *Proc) { defer unwind(p); solo.Rounds(p, 5, fixed(time.Second/4), time.Second/4) })
}

// TestRoundsUnwind aborts the roundsParked set-up at 1s, once by a
// process that panics after c's arrival released the pair, once by a
// cancel at the first poll after that instant, and once by e's draw
// panicking in the run loop as its third round starts: every party
// unwinds, its defers run, with no process or goroutine left.
func TestRoundsUnwind(t *testing.T) {
	stop := errors.New("stop")
	for _, how := range []string{"panic", "cancel", "draw"} {
		base := runtime.NumGoroutine()
		k := NewKernel()
		var unwound []string
		roundsParked(k, &unwound)
		switch how {
		case "panic":
			k.Spawn("buggy", func(p *Proc) {
				p.Wait(time.Second)
				panic("model bug")
			})
		case "cancel":
			k.SetCancel(func() error {
				if k.Now() >= time.Second {
					return stop
				}
				return nil
			})
		case "draw":
			solo := NewBarrier(k, "bad", 1)
			rounds := 0
			k.Spawn("f", func(p *Proc) {
				defer func() { unwound = append(unwound, p.Name()) }()
				solo.Rounds(p, 5, func() Time {
					if rounds++; rounds == 3 {
						panic("draw bug")
					}
					return time.Second / 4
				}, time.Second/4)
			})
		}
		err := k.Run()
		var pe *PanicError
		switch how {
		case "panic":
			if !errors.As(err, &pe) || pe.Proc != "buggy" {
				t.Fatalf("Run() = %v, want buggy's *PanicError", err)
			}
		case "cancel":
			if !errors.Is(err, stop) {
				t.Fatalf("Run() = %v, want the cancel error", err)
			}
		case "draw":
			if !errors.As(err, &pe) || pe.Proc != "f" || pe.Value != "draw bug" {
				t.Fatalf("Run() = %v, want f's *PanicError", err)
			}
		}
		if k.Now() != time.Second {
			t.Errorf("%s: aborted at %v, want 1s", how, k.Now())
		}
		want := "[a b c d e]"
		if how == "draw" {
			want = "[a b c d e f]"
		}
		if got := fmt.Sprint(unwound); got != want {
			t.Errorf("%s: unwound = %s, want %s", how, got, want)
		}
		if k.LiveProcs() != 0 {
			t.Errorf("%s: LiveProcs() = %d, want 0", how, k.LiveProcs())
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after Run, want the baseline %d", how, n, base)
		}
	}
}

// TestRoundsDeadlockNamesBarrier leaves two parties of a three-party
// barrier forever after the run loop made their arrivals, one in its
// first round and one in its second: the report names both by their
// barrier, as for Await.
func TestRoundsDeadlockNamesBarrier(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "phase", 3)
	pair := NewBarrier(k, "pair", 2)
	fixed := func(d Time) func() Time { return func() Time { return d } }
	k.Spawn("one", func(p *Proc) { b.Rounds(p, 2, fixed(time.Second), 0) })
	k.Spawn("two", func(p *Proc) {
		// Two rounds on pair with three; the second round's arrival on
		// pair is made by the run loop and never matched.
		pair.Rounds(p, 2, fixed(time.Second), time.Second)
	})
	k.Spawn("three", func(p *Proc) { pair.Rounds(p, 1, fixed(2*time.Second), 0) })
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if want := "[one: barrier phase two: barrier pair]"; fmt.Sprint(dl.Blocked) != want {
		t.Errorf("Blocked = %v, want %s", dl.Blocked, want)
	}
	if k.Now() != 4*time.Second {
		t.Errorf("deadlocked at %v, want 4s", k.Now())
	}
}

// TestRoundsPanicMessages pins the double-await and negative-wait
// panics of Rounds to the step-by-step loop's messages. In the double
// arrival the run loop makes the arrival at 2s, after the compute wait,
// finds p already arrived this epoch and hands the arrival back to p,
// which panics as Await does.
func TestRoundsPanicMessages(t *testing.T) {
	fixed := func(d Time) func() Time { return func() Time { return d } }
	cases := []struct {
		name string
		body func(k *Kernel, p *Proc)
		want string
	}{
		{"double arrival", func(k *Kernel, p *Proc) {
			b := NewBarrier(k, "phase", 2)
			k.After(time.Second, func() { k.Wake(p) })
			b.Await(p)
			b.Rounds(p, 3, fixed(time.Second), time.Second)
		}, "sim: proc 1 (p) awaited barrier phase twice in one epoch"},
		{"negative compute", func(k *Kernel, p *Proc) {
			NewBarrier(k, "phase", 2).Rounds(p, 1, fixed(-1), 0)
		}, "sim: negative wait on p"},
		{"negative cost", func(k *Kernel, p *Proc) {
			NewBarrier(k, "phase", 2).Rounds(p, 1, fixed(0), -1)
		}, "sim: negative wait on p"},
	}
	for _, c := range cases {
		k := NewKernel()
		var msg any
		k.Spawn("p", func(p *Proc) {
			defer func() { msg = recover() }()
			c.body(k, p)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("%s: Run() = %v", c.name, err)
		}
		if msg != c.want {
			t.Errorf("%s panicked with %v, want %q", c.name, msg, c.want)
		}
	}
}

// TestRoundsNegativeDrawInLoop draws a negative compute time for the
// second round, which the run loop starts at 2s (a background process's
// events keep every wait from completing inline): Run returns a
// *PanicError naming the process, with Wait's message.
func TestRoundsNegativeDrawInLoop(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, "phase", 1)
	d := time.Second
	k.Spawn("p", func(p *Proc) {
		b.Rounds(p, 2, func() Time { d -= 2 * time.Second; return d + 2*time.Second }, time.Second)
	})
	k.Spawn("noise", func(p *Proc) {
		for i := 0; i < 30; i++ {
			p.Wait(time.Second / 10)
		}
	})
	var pe *PanicError
	if err := k.Run(); !errors.As(err, &pe) || pe.Proc != "p" || pe.Value != "sim: negative wait on p" {
		t.Fatalf("Run() = %v, want p's negative-wait *PanicError", err)
	}
	if k.Now() != 2*time.Second || k.LiveProcs() != 0 {
		t.Errorf("aborted at %v with %d live, want 2s and 0", k.Now(), k.LiveProcs())
	}
}
