package core

import (
	"testing"
	"time"

	"paragonio/internal/mesh"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/workload"
)

func TestNewPlatformDefaults(t *testing.T) {
	p, err := NewPlatform(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine.Nodes != 4 {
		t.Fatalf("nodes = %d", p.Machine.Nodes)
	}
	cfg := p.Machine.FS.Config()
	if cfg.IONodes != 16 || cfg.StripeUnit != 64*1024 {
		t.Fatalf("default PFS config: %+v", cfg)
	}
	if p.Machine.Mesh.Nodes() != 512 {
		t.Fatalf("default mesh nodes = %d", p.Machine.Mesh.Nodes())
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	badMesh := mesh.Config{Rows: 0}
	if _, err := NewPlatform(Config{Nodes: 1, Mesh: &badMesh}); err == nil {
		t.Fatal("bad mesh accepted")
	}
	if _, err := NewPlatform(Config{Nodes: 1, StripeUnit: -1}); err == nil {
		t.Fatal("negative stripe unit accepted")
	}
}

// TestNewPlatformRejectsIONodesOffTheMesh pins the one I/O-node bound:
// I/O nodes fill mesh columns from the last, so a count past Rows*Cols
// would place nodes off the mesh (and allocate an array for each).
func TestNewPlatformRejectsIONodesOffTheMesh(t *testing.T) {
	small := mesh.DefaultConfig()
	small.Rows, small.Cols = 2, 2
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"512 on 16x32", Config{Nodes: 4, IONodes: 512}, true},
		{"513 on 16x32", Config{Nodes: 4, IONodes: 513}, false},
		{"600 on 16x32", Config{Nodes: 4, IONodes: 600}, false},
		{"200000 on 16x32", Config{Nodes: 4, IONodes: 200000}, false},
		{"4 on 2x2", Config{Nodes: 4, Mesh: &small, IONodes: 4}, true},
		{"5 on 2x2", Config{Nodes: 4, Mesh: &small, IONodes: 5}, false},
		{"default 16 on 2x2", Config{Nodes: 4, Mesh: &small}, false},
	} {
		errCheck := CheckIONodes(tc.cfg)
		_, errNew := NewPlatform(tc.cfg)
		if (errCheck == nil) != tc.ok || (errNew == nil) != tc.ok {
			t.Errorf("%s: CheckIONodes %v, NewPlatform %v, want ok=%v", tc.name, errCheck, errNew, tc.ok)
		}
	}
}

func TestNewPlatformOverrides(t *testing.T) {
	p, err := NewPlatform(Config{Nodes: 2, IONodes: 4, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Machine.FS.Config()
	if cfg.IONodes != 4 || cfg.StripeUnit != 1024 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
}

func TestRunCapturesResult(t *testing.T) {
	res, err := Run(Config{Nodes: 2, Seed: 1}, "demo", "v1",
		func(m *workload.Machine, seed int64) error {
			m.FS.CreateFile("in", 1<<20)
			m.SpawnNodes(seed, func(n *workload.Node) {
				if n.ID == 0 {
					m.BeginPhase("only")
				}
				h, err := m.FS.Open(n.P, n.ID, "in", pfs.MUnix)
				if err != nil {
					t.Error(err)
					return
				}
				h.Read(n.P, 4096)
				h.Close(n.P)
			})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "demo" || res.Version != "v1" || res.Nodes != 2 {
		t.Fatalf("metadata: %+v", res)
	}
	if res.Exec <= 0 {
		t.Fatal("no virtual time")
	}
	if res.Trace.Len() != 6 { // 2 x (open, read, close)
		t.Fatalf("trace has %d events", res.Trace.Len())
	}
	if len(res.IONodes) != 16 {
		t.Fatalf("io node stats = %d", len(res.IONodes))
	}
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if res.IOTime() <= 0 {
		t.Fatal("IOTime not positive")
	}
	if res.IOPercent() <= 0 || res.IOPercent() > 100 {
		t.Fatalf("IOPercent = %g", res.IOPercent())
	}
}

func TestRunPropagatesScriptError(t *testing.T) {
	_, err := Run(Config{Nodes: 1}, "demo", "v1",
		func(m *workload.Machine, seed int64) error {
			return pfs.ErrBadSize
		})
	if err == nil {
		t.Fatal("script error swallowed")
	}
}

func TestRunReportsDeadlock(t *testing.T) {
	_, err := Run(Config{Nodes: 2}, "demo", "v1",
		func(m *workload.Machine, seed int64) error {
			c := m.NewCollective("half", 2)
			m.SpawnNodes(seed, func(n *workload.Node) {
				if n.ID == 0 {
					c.Barrier(n) // node 1 never arrives
				}
			})
			return nil
		})
	if err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestIOPercentZeroGuards(t *testing.T) {
	r := &Result{Exec: 0, Nodes: 0, Trace: pablo.NewTrace()}
	if r.IOPercent() != 0 {
		t.Fatal("IOPercent on empty result")
	}
}

func TestRunWithSampler(t *testing.T) {
	res, err := Run(Config{Nodes: 4, Seed: 1, SampleInterval: 100 * time.Millisecond},
		"demo", "v1", func(m *workload.Machine, seed int64) error {
			m.FS.CreateFile("f", 4<<20)
			m.SpawnNodes(seed, func(n *workload.Node) {
				h, _ := m.FS.Open(n.P, n.ID, "f", pfs.MUnix)
				for i := 0; i < 10; i++ {
					h.Read(n.P, 65536)
				}
				h.Close(n.P)
			})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no utilization samples collected")
	}
	if res.Samples[0].T <= 0 {
		t.Fatal("first sample at non-positive time")
	}
}
