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

// TestLogTierGoldenDigests pins the log-tier-on runs the same way the
// canonical runs are pinned: exact FNV-1a digests. They differ from the
// tiers-off goldens — the log changes when I/O completes — but the event
// counts match them: the tier changes timings, never what I/O the
// program asked for.
func TestLogTierGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}

	golden := []struct {
		key    string
		events int
		digest uint64
		run    func(cfg core.Config) (*core.Result, error)
	}{
		{"eth/C", 23768, 0x5ce144e3404cc137, func(cfg core.Config) (*core.Result, error) {
			return escat.Run(context.Background(), cfg, escat.Ethylene(), escat.VersionC())
		}},
		{"prism/C", 11396, 0x162463d0c4c76706, func(cfg core.Config) (*core.Result, error) {
			return prism.Run(context.Background(), cfg, prism.TestProblem(), prism.VersionC())
		}},
	}
	cfg := core.Config{Seed: 1, Tiers: logOnTiers()}
	for _, g := range golden {
		res, err := g.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if n := res.Trace.Len(); n != g.events {
			t.Errorf("%s: %d events, golden %d", g.key, n, g.events)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s: digest %#016x, golden %#016x", g.key, d, g.digest)
		}
		if res.Log.Appends == 0 {
			t.Errorf("%s: log tier on but zero appends", g.key)
		}
		if res.Log.DrainedRecords != res.Log.Appends || res.Log.PendingRecords != 0 {
			t.Errorf("%s: drain did not finish: %+v", g.key, res.Log)
		}
	}
}

// TestLogTierDegradedDigests pins the log tier's interaction with the
// fault plane: the drain routes through the same I/O-node data path as
// direct writes, so an injected node crash or straggler reprices the
// drain traffic deterministically. Digests are distinct from both the
// healthy log-on golden and the log-off degraded goldens
// (faults_test.go).
func TestLogTierDegradedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}

	const healthyLog = 0x162463d0c4c76706 // prism/C, log tier on
	golden := []struct {
		key    string
		digest uint64
		logOff uint64 // same fault, log tier off (faults_test.go)
		plan   faults.Plan
	}{
		{"prism/C+log+node-crash", 0xd5c79de5ed0e9965, 0xa718d8caef853911,
			faults.Plan{Faults: []faults.Fault{
				{Kind: faults.NodeCrash, At: time.Second, IONode: 0}}}},
		{"prism/C+log+straggler", 0x7d95502ab2dd827e, 0x653508a8fbecbd12,
			faults.Plan{Faults: []faults.Fault{
				{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 4}}}},
	}
	for _, g := range golden {
		if g.digest == healthyLog {
			t.Errorf("%s: pinned digest equals the healthy log-on golden — the fault is inert", g.key)
		}
		if g.digest == g.logOff {
			t.Errorf("%s: pinned digest equals the log-off degraded golden — the tier is inert", g.key)
		}
		cfg := core.Config{Seed: 1, Tiers: logOnTiers(), Faults: g.plan}
		res, err := prism.Run(context.Background(), cfg, prism.TestProblem(), prism.VersionC())
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if n := res.Trace.Len(); n != 11396 {
			t.Errorf("%s: %d events, golden 11396", g.key, n)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s: digest %#016x, golden %#016x", g.key, d, g.digest)
		}
	}
}

// TestLogTierExperimentRegistered pins the experiment-family wiring.
func TestLogTierExperimentRegistered(t *testing.T) {
	if _, ok := ByID("logtier"); !ok {
		t.Fatal("logtier experiment not registered")
	}
}

// TestLogTierBeatsWriteBehind runs the logtier study once and pins its
// headline and its honest negative: on both checkpoint-shaped burst
// ladders the log tier beats deadline-flushed write-behind outright
// (appends commit at host-memory speed before any mesh hop), while at
// application scale the log alone leaves ESCAT's quadrature read-back
// and PRISM's restart read at no-cache speed — a log absorbs writes, it
// cannot serve reads.
func TestLogTierBeatsWriteBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads skipped in -short mode")
	}
	art, err := logTierExp(sharedSuite)
	if err != nil {
		t.Fatal(err)
	}
	if art.ID != "logtier" {
		t.Errorf("artifact ID %q", art.ID)
	}
	for _, pre := range []string{"chk", "stg"} {
		log, wb := art.Measured[pre+".wall_s"], art.Measured[pre+".wall_wb_s"]
		if log >= wb {
			t.Errorf("%s: log tier %.3f s not below write-behind %.3f s", pre, log, wb)
		}
		if off := art.Baseline[pre+".wall_s"]; log >= off {
			t.Errorf("%s: log tier %.3f s not below no-cache %.3f s", pre, log, off)
		}
	}
	if art.Measured["chk.appends"] == 0 {
		t.Error("checkpoint log rung absorbed zero appends")
	}
	// The honest negatives: under the log alone, read-back runs at the
	// no-cache pace — far above what write-behind serves from resident
	// dirty blocks (Baseline holds the write-behind time here).
	for _, k := range []string{"eth.quad_read_s", "prism.rst_read_s"} {
		if art.Measured[k] <= 2*art.Baseline[k] {
			t.Errorf("%s: log-alone read %.2f s not well above write-behind %.2f s — the negative went soft",
				k, art.Measured[k], art.Baseline[k])
		}
	}
}

// TestLogVariantsDistinct pins the suite-cache keys of the log-tier
// variants: distinct ids, and every variant actually enables the tier.
func TestLogVariantsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range logTierVariants() {
		if seen[v.id] {
			t.Errorf("duplicate log variant id %q", v.id)
		}
		seen[v.id] = true
		if v.tiers.Log == nil {
			t.Errorf("variant %q does not enable the log tier", v.id)
		}
	}
}
