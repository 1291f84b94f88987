package experiments

import (
	"context"
	"testing"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/faults"
)

// faultGoldenDigests pins the degraded-machine runs the same way the
// canonical runs are pinned: exact FNV-1a digests of the PRISM version C
// trace under each fault kind. Faults are scheduled DES events armed in
// plan order before the run, so their sequence allocation — and hence
// every digest — is reproducible. The event counts all match the healthy run
// (11396): faults change when I/O completes, never what I/O the program
// asked for. The client-flap rung runs with the client tier on; its
// healthy baseline is the client-on golden 0x4f35ba3c6c1263b6
// (clientcache_test.go), and the storm digest differs from it because
// recalled leases turn later lookups into misses.
var faultGoldenDigests = []struct {
	key    string
	events int
	digest uint64
	plan   faults.Plan
	client bool
}{
	{"prism/C+disk-fail", 11396, 0x9ce1a397b722477e, faults.Plan{Faults: []faults.Fault{
		{Kind: faults.DiskFail, At: time.Second, IONode: 0}}}, false},
	{"prism/C+node-crash", 11396, 0xa718d8caef853911, faults.Plan{Faults: []faults.Fault{
		{Kind: faults.NodeCrash, At: time.Second, IONode: 0}}}, false},
	{"prism/C+straggler", 11396, 0x653508a8fbecbd12, faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 4}}}, false},
	{"prism/C+client-flap", 11396, 0x3f449cbd7cad19d0, faults.Plan{Faults: []faults.Fault{
		{Kind: faults.ClientFlap, At: time.Second, Node: 1, Count: 7500, Period: time.Second}}}, true},
}

// TestFaultGoldenDigests pins every fault kind's degraded trace, and
// checks each digest is distinct from the healthy golden it degrades.
func TestFaultGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}

	const healthyOff = 0xbc010fbf3debceec    // prism/C, tiers off
	const healthyClient = 0x4f35ba3c6c1263b6 // prism/C, client tier on
	for _, g := range faultGoldenDigests {
		healthy := uint64(healthyOff)
		if g.client {
			healthy = healthyClient
		}
		if g.digest == healthy {
			t.Errorf("%s: pinned digest equals the healthy golden — the fault is inert", g.key)
		}
		cfg := core.Config{Seed: 1, Faults: g.plan}
		if g.client {
			cfg.Tiers = clientOnTiers()
		}
		res, err := prism.Run(context.Background(), cfg, prism.TestProblem(), prism.VersionC())
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if n := res.Trace.Len(); n != g.events {
			t.Errorf("%s: %d events, golden %d", g.key, n, g.events)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s: digest %#016x, golden %#016x", g.key, d, g.digest)
		}
	}
}

// TestEmptyFaultPlanMatchesHealthyGoldens is the property test behind
// the fault plane's digest-safety contract: a run configured with an
// explicitly empty (non-nil) faults.Plan arms zero events and must be
// byte-identical to every one of the seven healthy goldens.
func TestEmptyFaultPlanMatchesHealthyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	empty := faults.Plan{Faults: []faults.Fault{}}
	cfg := core.Config{Seed: 1, Faults: empty}
	ctx := context.Background()
	runs := map[string]func() (*core.Result, error){
		"escat/eth/A": func() (*core.Result, error) { return escat.Run(ctx, cfg, escat.Ethylene(), escat.VersionA()) },
		"escat/eth/B": func() (*core.Result, error) { return escat.Run(ctx, cfg, escat.Ethylene(), escat.VersionB()) },
		"escat/eth/C": func() (*core.Result, error) { return escat.Run(ctx, cfg, escat.Ethylene(), escat.VersionC()) },
		"escat/co/C": func() (*core.Result, error) {
			return escat.Run(ctx, cfg, escat.CarbonMonoxide(), escat.VersionCCarbonMonoxide())
		},
		"prism/A": func() (*core.Result, error) { return prism.Run(ctx, cfg, prism.TestProblem(), prism.VersionA()) },
		"prism/B": func() (*core.Result, error) { return prism.Run(ctx, cfg, prism.TestProblem(), prism.VersionB()) },
		"prism/C": func() (*core.Result, error) { return prism.Run(ctx, cfg, prism.TestProblem(), prism.VersionC()) },
	}
	for _, g := range goldenDigests {
		run, ok := runs[g.key]
		if !ok {
			t.Fatalf("no empty-plan runner for golden %s", g.key)
		}
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if n := res.Trace.Len(); n != g.events {
			t.Errorf("%s: empty plan produced %d events, golden %d", g.key, n, g.events)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s: empty plan digest %#016x != healthy golden %#016x", g.key, d, g.digest)
		}
	}
}

// TestFaultsExperimentRegistered pins the experiment-family wiring: the
// faults study is registered and runnable from iotables.
func TestFaultsExperimentRegistered(t *testing.T) {
	if _, ok := ByID("faults"); !ok {
		t.Fatal("faults experiment not registered")
	}
}

// TestFaultsArtifact runs the faults study once and checks its shape:
// disk-fail and straggler rungs are strictly slower than the healthy
// baseline, the crash rung merely differs (on the single-writer PRISM
// checkpoint, failover consolidates adjacent stripes on the ring
// successor into sequential continuations and the run gets *faster* —
// see the artifact Notes), the disk-fail rung counts
// reconstruction-mode requests, and the crash rung counts reroutes.
func TestFaultsArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads skipped in -short mode")
	}
	art, err := faultsExp(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	if art.ID != "faults" {
		t.Errorf("artifact ID %q", art.ID)
	}
	healthy := art.Measured["wall_s"]
	for _, k := range []string{"wall_diskfail_s", "wall_strag_s"} {
		if art.Measured[k] <= healthy {
			t.Errorf("%s = %.3f not above healthy %.3f", k, art.Measured[k], healthy)
		}
	}
	if art.Measured["wall_crash_s"] == healthy {
		t.Errorf("wall_crash_s = %.3f identical to healthy — the crash rung is inert", healthy)
	}
	if art.Measured["degraded_reqs"] == 0 {
		t.Error("disk-fail rung served zero degraded requests")
	}
	if art.Measured["rerouted_reqs"] == 0 {
		t.Error("node-crash rung rerouted zero requests")
	}
}
