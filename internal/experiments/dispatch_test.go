package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/sim"
	"paragonio/internal/workload"
)

// TestDispatchStreamGolden pins the kernel's dispatch stream, not just
// the trace it produces: the FNV-1a digest of every dispatched event's
// (at, seq), each folded as 16 bytes (at, then seq, little-endian), for
// three seed-1 runs. A change to how the kernel orders or counts events
// fails here even if it happens to keep every Pablo digest.
func TestDispatchStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	co := escat.CarbonMonoxide()
	eth := escat.Ethylene()
	pd := prism.TestProblem()
	golden := []struct {
		name   string
		nodes  int
		script func(m *workload.Machine) error
		events uint64
		hash   uint64
	}{
		{"escat/eth/C", eth.Nodes, func(m *workload.Machine) error {
			return escat.Script(m, eth, escat.VersionC(), 1)
		}, 96322, 0x8d45cd6a42e7d723},
		{"escat/co/C", co.Nodes, func(m *workload.Machine) error {
			return escat.Script(m, co, escat.VersionCCarbonMonoxide(), 1)
		}, 569126, 0xe0d0ab3d04491db4},
		{"prism/C", pd.Nodes, func(m *workload.Machine) error {
			return prism.Script(m, pd, prism.VersionC(), 1)
		}, 287284, 0x16174b434261b159},
	}
	for _, g := range golden {
		p, err := core.NewPlatform(core.Config{Nodes: g.nodes, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		h := fnv.New64a()
		var buf [16]byte
		var n uint64
		p.Machine.K.SetObserver(func(at sim.Time, seq uint64) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(at))
			binary.LittleEndian.PutUint64(buf[8:], seq)
			h.Write(buf[:])
			n++
		})
		if err := g.script(p.Machine); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := p.Machine.K.Run(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if n != g.events || h.Sum64() != g.hash {
			t.Errorf("%s: %d events hashing to %#016x, golden %d and %#016x",
				g.name, n, h.Sum64(), g.events, g.hash)
		}
		if got := p.Machine.K.EventsProcessed(); got != n {
			t.Errorf("%s: EventsProcessed() = %d, observer saw %d", g.name, got, n)
		}
	}
}
