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

// Name returns the barrier's name.
func (b *Barrier) Name() string { return b.name }

// Await blocks p until all n parties have arrived for this epoch.
func (b *Barrier) Await(p *Proc) {
	if p.barrier == b {
		panic(fmt.Sprintf("sim: %s awaited barrier %s twice in one epoch", p, b.name))
	}
	if len(b.arrived)+1 < b.n {
		b.arrived = append(b.arrived, p)
		p.barrier = b
		p.park(b.park)
		return
	}
	b.release()
}

// AwaitThen is Await followed by p.Wait(d). A party that parks is not
// resumed at the release: its wake event makes the wait in its place
// (Proc.setThen).
func (b *Barrier) AwaitThen(p *Proc, d Time) {
	p.setThen(d)
	b.Await(p)
	p.waitThen()
}

// release completes the epoch: every earlier arrival is woken at the
// current instant.
func (b *Barrier) release() {
	for i, w := range b.arrived {
		w.barrier = nil
		b.k.wake(w)
		b.arrived[i] = nil
	}
	b.arrived = b.arrived[:0]
}
