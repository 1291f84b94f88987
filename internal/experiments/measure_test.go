package experiments

import (
	"testing"

	"paragonio/internal/apps/escat"
	"paragonio/internal/cache"
	"paragonio/internal/pablo"
)

// TestMeasuredRunsBypassTheEventPool pins that a measured run records no
// events: it neither takes a buffer from the pablo event pool nor hands
// one back. A recording Trace takes the pool's smallest-class buffer on
// its first event, so the test plants one marked buffer of that class,
// makes a measured run of each kind (a what-if rung and a Figure 1
// build), and requires every mark intact and the planted buffer still
// the one the next trace receives.
func TestMeasuredRunsBypassTheEventPool(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	const smallestClass = 1 << 10 // pablo's smallest pooled capacity
	mark := pablo.Event{Node: -1, Op: pablo.OpFlush, File: "planted", Duration: 7}
	plant := pablo.NewTrace()
	for i := 0; i < smallestClass; i++ {
		plant.Record(mark)
	}
	planted := plant.Events()
	if cap(planted) != smallestClass {
		t.Fatalf("planting trace holds %d slots, want %d", cap(planted), smallestClass)
	}
	plant.Release()

	s := NewSuite(1)
	if _, err := s.underTiers(prismC, tiersOf(cacheVariants(), "wb32")); err != nil {
		t.Fatal(err)
	}
	b1 := mustLookup("escat", "ethylene", escat.Progressions()[2].ID)
	if _, err := s.underTiers(b1, cache.Tiers{}); err != nil {
		t.Fatal(err)
	}
	if traced, measured := s.runKinds(); measured != 2 || traced != 0 {
		t.Fatalf("suite made %d measured and %d trace runs, want 2 and 0", measured, traced)
	}

	for i, ev := range planted {
		if ev != mark {
			t.Fatalf("a measured run recorded into a pooled buffer: slot %d holds %+v", i, ev)
		}
	}
	probe := pablo.NewTrace()
	probe.Record(mark)
	if &probe.Events()[0] != &planted[0] {
		t.Error("the planted buffer left the event pool during the measured runs")
	}
	probe.Release()
}
