package pfs

import (
	"strings"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/faults"
	"paragonio/internal/sim"
)

// faultRun executes count strided writes of size bytes against a 4-I/O-
// node file system under the given fault plan and returns the loop time
// plus the file system (for stats).
func faultRun(t *testing.T, plan faults.Plan, tiers cache.Tiers) (sim.Time, *FileSystem) {
	t.Helper()
	k := sim.NewKernel()
	m := testMesh(t)
	cfg := DefaultConfig(m)
	cfg.IONodes = 4
	cfg.Faults = plan
	cfg.Tiers = tiers
	fs, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var loop sim.Time
	k.Spawn("n", func(p *sim.Proc) {
		h, _ := fs.Open(p, 0, "f", MUnix)
		t0 := p.Now()
		for j := 0; j < 64; j++ {
			// One stripe unit per I/O node in turn, so every node serves.
			h.Seek(p, int64(j)*cfg.StripeUnit)
			h.Write(p, cfg.StripeUnit)
		}
		loop = p.Now() - t0
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return loop, fs
}

func planOf(fs ...faults.Fault) faults.Plan { return faults.Plan{Faults: fs} }

// TestFaultDiskFailDegradesService pins the RAID-3 reconstruction price:
// a failed data drive makes the same workload strictly slower, every
// post-failure request is counted degraded, and repair restores speed.
func TestFaultDiskFailDegradesService(t *testing.T) {
	healthy, _ := faultRun(t, faults.Plan{}, cache.Tiers{})
	degraded, fs := faultRun(t, planOf(faults.Fault{Kind: faults.DiskFail, At: 0, IONode: 1}), cache.Tiers{})
	if degraded <= healthy {
		t.Errorf("degraded run (%v) not slower than healthy (%v)", degraded, healthy)
	}
	st := fs.IONodeStats()[1]
	if st.Degraded == 0 || st.Degraded != st.Requests {
		t.Errorf("node 1 degraded count %d, want all %d requests", st.Degraded, st.Requests)
	}
	for i, s := range fs.IONodeStats() {
		if i != 1 && s.Degraded != 0 {
			t.Errorf("node %d counted %d degraded requests without a fault", i, s.Degraded)
		}
	}
}

// TestFaultNodeCrashReroutes pins failover: after the crash instant no
// request reaches the dead node and its stripes are absorbed by the
// ring successor, which serves its own load plus the failed-over load.
func TestFaultNodeCrashReroutes(t *testing.T) {
	_, hfs := faultRun(t, faults.Plan{}, cache.Tiers{})
	_, fs := faultRun(t, planOf(faults.Fault{Kind: faults.NodeCrash, At: 0, IONode: 2}), cache.Tiers{})
	if fs.Rerouted() == 0 {
		t.Fatal("crash of a serving node rerouted nothing")
	}
	if got := fs.IONodeStats()[2].Requests; got != 0 {
		t.Errorf("dead node served %d requests", got)
	}
	want := hfs.IONodeStats()[2].Requests + hfs.IONodeStats()[3].Requests
	if got := fs.IONodeStats()[3].Requests; got != want {
		t.Errorf("ring successor served %d requests, want %d (own + failed-over)", got, want)
	}
}

// TestFaultStragglerSlows pins the straggler multiplier: disk and mesh
// service addressed at the slow node stretch by the factor, and recovery
// at Until restores nominal pricing.
func TestFaultStragglerSlows(t *testing.T) {
	healthy, _ := faultRun(t, faults.Plan{}, cache.Tiers{})
	slow, _ := faultRun(t, planOf(faults.Fault{Kind: faults.Straggler, At: 0, IONode: 0, Factor: 8}), cache.Tiers{})
	if slow <= healthy {
		t.Fatalf("straggler run (%v) not slower than healthy (%v)", slow, healthy)
	}
	// A recovered straggler costs strictly less than a permanent one.
	recovered, _ := faultRun(t, planOf(faults.Fault{
		Kind: faults.Straggler, At: 0, Until: 100 * time.Millisecond, IONode: 0, Factor: 8}), cache.Tiers{})
	if recovered >= slow {
		t.Errorf("recovered straggler (%v) not faster than permanent (%v)", recovered, slow)
	}
}

// TestFaultClientFlapRequiresClientTier pins the configuration error: a
// client-flap fault without the lease-coherent client tier is rejected
// at New, not silently ignored.
func TestFaultClientFlapRequiresClientTier(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(testMesh(t))
	cfg.Faults = planOf(faults.Fault{Kind: faults.ClientFlap, At: time.Second, Node: 1})
	_, err := New(k, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "client-flap") {
		t.Fatalf("client-flap without Tiers.Client: err = %v, want client-flap config error", err)
	}
}

// TestFaultClientFlapFires pins that each scheduled flap reaches the
// client tier (the storm counter advances once per flap).
func TestFaultClientFlapFires(t *testing.T) {
	tiers := cache.Tiers{Client: &cache.ClientConfig{CapacityBytes: 8 << 20, LeaseTTL: 10 * time.Minute}}
	_, fs := faultRun(t, planOf(faults.Fault{
		Kind: faults.ClientFlap, At: time.Millisecond, Node: 0, Count: 3, Period: time.Millisecond}), tiers)
	if got := fs.ClientStats().Flaps; got != 3 {
		t.Errorf("flap count %d, want 3", got)
	}
}

// TestFaultPlanRejectedAtNew pins that an invalid plan is a construction
// error: an out-of-range target never reaches the scheduler.
func TestFaultPlanRejectedAtNew(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(testMesh(t))
	cfg.IONodes = 4
	cfg.Faults = planOf(faults.Fault{Kind: faults.DiskFail, At: 0, IONode: 9})
	if _, err := New(k, cfg, nil); err == nil {
		t.Fatal("out-of-range fault target accepted")
	}
}
