package sim

import "fmt"

// Barrier synchronizes a fixed group of n processes: each caller of Await
// blocks until all n have arrived, then all are released at the same
// virtual instant. The barrier is cyclic and may be reused for successive
// phases.
type Barrier struct {
	k        *Kernel
	name     string
	park     string // deadlock-diagnostic reason, built once
	n        int
	arrived  []*Proc
	arriveAt map[*Proc]bool // processes arrived in the current epoch
}

// NewBarrier creates a barrier for a party of n processes (n >= 1).
func NewBarrier(k *Kernel, name string, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier party must be >= 1")
	}
	return &Barrier{k: k, name: name, park: "barrier " + name, n: n, arriveAt: make(map[*Proc]bool)}
}

// Name returns the barrier's name.
func (b *Barrier) Name() string { return b.name }

// Await blocks p until all n parties have arrived for this epoch.
func (b *Barrier) Await(p *Proc) {
	if b.arriveAt[p] {
		panic(fmt.Sprintf("sim: %s awaited barrier %s twice in one epoch", p, b.name))
	}
	b.arriveAt[p] = true
	if len(b.arrived)+1 < b.n {
		b.arrived = append(b.arrived, p)
		p.park(b.park)
		return
	}
	b.release()
	delete(b.arriveAt, p)
}

// release completes the epoch: every earlier arrival is woken at the
// current instant.
func (b *Barrier) release() {
	for i, w := range b.arrived {
		delete(b.arriveAt, w)
		b.k.wake(w)
		b.arrived[i] = nil
	}
	b.arrived = b.arrived[:0]
}
