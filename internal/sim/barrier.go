package sim

import "fmt"

// Barrier synchronizes a fixed group of n processes: each caller of Await
// blocks until all n have arrived, then all are released at the same
// virtual instant. The barrier is cyclic and may be reused for successive
// phases.
type Barrier struct {
	k       *Kernel
	name    string
	park    string // deadlock-diagnostic reason, built once
	n       int
	arrived []*Proc // processes parked in the current epoch
}

// NewBarrier creates a barrier for a party of n processes (n >= 1).
func NewBarrier(k *Kernel, name string, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier party must be >= 1")
	}
	return &Barrier{k: k, name: name, park: "barrier " + name, n: n}
}

// Await blocks p until all n parties have arrived for this epoch.
func (b *Barrier) Await(p *Proc) {
	if b.join(p) {
		p.park(b.park)
	}
}

// join makes p's arrival for this epoch and reports whether p must stay
// parked: false when p is the last party and has released the epoch.
func (b *Barrier) join(p *Proc) bool {
	if p.barrier == b {
		panic(fmt.Sprintf("sim: %s awaited barrier %s twice in one epoch", p, b.name))
	}
	if len(b.arrived)+1 < b.n {
		b.arrived = append(b.arrived, p)
		p.barrier = b
		return true
	}
	b.release()
	return false
}

// AwaitThen is Await followed by p.Wait(d). A party that parks is not
// resumed at the release: its wake event makes the wait in its place
// (Proc.setThen).
func (b *Barrier) AwaitThen(p *Proc, d Time) {
	p.setThen(d)
	b.Await(p)
	p.waitThen()
}

// Rounds runs n collective rounds of p on b. A round is
// p.Wait(compute()), then Await, then p.Wait(then): compute is called
// when the round starts and draws its compute time. Bind it once per
// process; the rounds themselves allocate nothing.
//
// Whichever step p would park for, the run loop takes the following
// steps in its place when the wake fires (Kernel.inPlace): the end of
// the compute wait makes the arrival, the release schedules the cost
// wait, and the end of the cost wait starts the next round, calling
// compute. So p is resumed once, after its last round, however many
// rounds the loop runs for it. Each step takes the sequence number,
// event count, observer call and cancel poll p's own step would, and
// arrivals made by the loop and by processes share one epoch in
// arrival order, so the run is indistinguishable from the step-by-step
// loop. n = 1 is the one-round form: p.Wait(compute()) followed by
// AwaitThen(p, then).
func (b *Barrier) Rounds(p *Proc, n int, compute func() Time, then Time) {
	if then < 0 {
		panic("sim: negative wait on " + p.name)
	}
	if n < 1 {
		return
	}
	p.round, p.draw, p.then, p.rounds, p.step = b, compute, then, n, stepNext
	for {
		// The same steps as Kernel.inPlace, taken by p itself: a wait may
		// complete inline and the arrival may release the epoch, and
		// whenever p parks instead, the loop carries on from p.step.
		switch p.step {
		case stepNext:
			p.rounds--
			p.step = stepArrive
			p.Wait(p.draw())
		case stepArrive:
			p.step = stepThen
			b.Await(p)
		case stepThen:
			p.step = stepNone
			if p.rounds > 0 {
				p.step = stepNext
			}
			p.Wait(p.then)
		default:
			p.round, p.draw = nil, nil
			return
		}
	}
}

// release completes the epoch: every earlier arrival is woken at the
// current instant.
func (b *Barrier) release() {
	for i, w := range b.arrived {
		w.barrier = nil
		b.k.Wake(w)
		b.arrived[i] = nil
	}
	b.arrived = b.arrived[:0]
}
