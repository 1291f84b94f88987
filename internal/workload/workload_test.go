package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"paragonio/internal/mesh"
	"paragonio/internal/pfs"
	"paragonio/internal/sim"
)

func newMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	k := sim.NewKernel()
	ms := testMesh(t)
	fs, err := pfs.New(k, pfs.DefaultConfig(ms), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(k, ms, fs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMachineValidation(t *testing.T) {
	k := sim.NewKernel()
	ms := testMesh(t)
	fs, _ := pfs.New(k, pfs.DefaultConfig(ms), nil)
	if _, err := NewMachine(k, ms, fs, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestSpawnNodesRunsAll(t *testing.T) {
	m := newMachine(t, 16)
	ran := make([]bool, 16)
	m.SpawnNodes(1, func(n *Node) {
		ran[n.ID] = true
		n.Compute(time.Millisecond)
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	for id, ok := range ran {
		if !ok {
			t.Fatalf("node %d never ran", id)
		}
	}
}

func TestNodeRNGDeterministicAndDistinct(t *testing.T) {
	draw := func() []int64 {
		m := newMachine(t, 4)
		out := make([]int64, 4)
		m.SpawnNodes(42, func(n *Node) { out[n.ID] = n.RNG.Int63() })
		if err := m.K.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different draws")
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatal("per-node streams not distinct")
	}
}

func TestComputeJitterBounded(t *testing.T) {
	m := newMachine(t, 8)
	finish := make([]time.Duration, 8)
	m.SpawnNodes(7, func(n *Node) {
		n.ComputeJitter(time.Second, 100*time.Millisecond)
		finish[n.ID] = n.P.Now()
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	var spread bool
	for _, f := range finish {
		if f < time.Second || f >= 1100*time.Millisecond {
			t.Fatalf("finish %v out of [1s, 1.1s)", f)
		}
		if f != finish[0] {
			spread = true
		}
	}
	if !spread {
		t.Fatal("jitter produced identical finishes")
	}
}

func TestPhaseTracking(t *testing.T) {
	m := newMachine(t, 1)
	m.SpawnNodes(1, func(n *Node) {
		m.BeginPhase("one")
		n.Compute(time.Second)
		m.BeginPhase("two")
		n.Compute(2 * time.Second)
		m.EndPhases()
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	ph := m.Phases()
	if len(ph) != 2 {
		t.Fatalf("phases = %+v", ph)
	}
	if ph[0].Name != "one" || ph[0].Start != 0 || ph[0].End != time.Second {
		t.Fatalf("phase one = %+v", ph[0])
	}
	if ph[1].Name != "two" || ph[1].Start != time.Second || ph[1].End != 3*time.Second {
		t.Fatalf("phase two = %+v", ph[1])
	}
}

func TestCollectiveBarrierSynchronizes(t *testing.T) {
	m := newMachine(t, 4)
	c := m.NewCollective("sync", 4)
	after := make([]time.Duration, 4)
	m.SpawnNodes(1, func(n *Node) {
		n.Compute(time.Duration(n.ID) * time.Second)
		c.Barrier(n)
		after[n.ID] = n.P.Now()
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	for _, at := range after {
		if at != after[0] {
			t.Fatalf("barrier exit times differ: %v", after)
		}
	}
	if after[0] < 3*time.Second {
		t.Fatalf("barrier released before slowest arrival: %v", after[0])
	}
}

func TestBroadcastChargesEveryone(t *testing.T) {
	m := newMachine(t, 8)
	c := m.NewCollective("bcast", 8)
	var exit time.Duration
	m.SpawnNodes(1, func(n *Node) {
		c.Broadcast(n, 0, 1<<20)
		if n.ID == 0 {
			exit = n.P.Now()
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	want := m.Mesh.Broadcast(8, 1<<20)
	if exit != want {
		t.Fatalf("broadcast exit = %v, want %v", exit, want)
	}
}

func TestGatherRootPaysMore(t *testing.T) {
	m := newMachine(t, 8)
	c := m.NewCollective("gather", 8)
	exits := make([]time.Duration, 8)
	m.SpawnNodes(1, func(n *Node) {
		c.Gather(n, 0, 1<<18)
		exits[n.ID] = n.P.Now()
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if exits[0] <= exits[1] {
		t.Fatalf("root exit %v not later than sender %v", exits[0], exits[1])
	}
}

func TestSizeDists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ch := Choice{Sizes: []int64{100, 131072}, Weights: []float64{97, 3}}
	var small, large int
	for i := 0; i < 10000; i++ {
		switch ch.Next(rng) {
		case 100:
			small++
		case 131072:
			large++
		default:
			t.Fatal("Choice returned unknown size")
		}
	}
	frac := float64(small) / 10000
	if frac < 0.95 || frac > 0.99 {
		t.Fatalf("small fraction = %g, want ~0.97", frac)
	}
	_ = large
}

func TestChoicePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []Choice{
		{},
		{Sizes: []int64{1}, Weights: []float64{1, 2}},
		{Sizes: []int64{1}, Weights: []float64{-1}},
		{Sizes: []int64{1}, Weights: []float64{0}},
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			c.Next(rng)
		}()
	}
}

func TestAllReduceSynchronizesAndCharges(t *testing.T) {
	m := newMachine(t, 8)
	c := m.NewCollective("ar", 8)
	exits := make([]time.Duration, 8)
	m.SpawnNodes(1, func(n *Node) {
		c.AllReduceRounds(n, 3, time.Duration(n.ID)*time.Second, 0, 64)
		exits[n.ID] = n.P.Now()
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	want := 3 * (7*time.Second + m.Mesh.AllReduce(8, 64))
	for id, at := range exits {
		if at != want {
			t.Fatalf("node %d exit %v, want %v", id, at, want)
		}
	}
}

// TestBarrierRoundsMatchComputeJitterBarrier runs eight nodes through
// five jittered compute-then-barrier cycles: step by step with
// ComputeJitter and Barrier, with one BarrierRounds call per cycle, and
// with one call for all five. The nodes must leave at the same times,
// with their generators at the same state, after the same number of
// kernel events.
func TestBarrierRoundsMatchComputeJitterBarrier(t *testing.T) {
	run := func(form string) string {
		m := newMachine(t, 8)
		c := m.NewCollective("cycle", 8)
		out := make([]string, 8)
		m.SpawnNodes(1, func(n *Node) {
			switch form {
			case "all":
				c.BarrierRounds(n, 5, time.Second, time.Second/2)
			case "one":
				for cyc := 0; cyc < 5; cyc++ {
					c.BarrierRounds(n, 1, time.Second, time.Second/2)
				}
			default:
				for cyc := 0; cyc < 5; cyc++ {
					n.ComputeJitter(time.Second, time.Second/2)
					c.Barrier(n)
				}
			}
			out[n.ID] = fmt.Sprintf("%v %d", n.P.Now(), n.RNG.Int63())
		})
		if err := m.K.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out, m.K.EventsProcessed())
	}
	want := run("steps")
	for _, form := range []string{"one", "all"} {
		if got := run(form); got != want {
			t.Errorf("%s: exits %s, step by step %s", form, got, want)
		}
	}
}

// testMesh returns the paper machine's mesh, failing tb if it does not build.
func testMesh(tb testing.TB) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(mesh.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
