package experiments

import (
	"context"
	"testing"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
)

// clientOnTiers is the pinned client-tier configuration of the
// client-on digest set: 8 MB/node with a lease TTL long enough that
// the tier actually serves hits in the pinned workloads.
func clientOnTiers() cache.Tiers {
	return cache.Tiers{Client: &cache.ClientConfig{
		CapacityBytes: 8 << 20, LeaseTTL: 10 * time.Minute,
	}}
}

// TestClientCacheGoldenDigests pins the client-tier-on runs the same
// way the canonical runs are pinned: exact FNV-1a digests. The digests
// differ from the client-off goldens — the tier changes timings — but the
// event counts match them: caching changes when I/O happens, never what
// I/O the program asked for.
func TestClientCacheGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}

	golden := []struct {
		key    string
		events int
		digest uint64
		run    func(cfg core.Config) (*core.Result, error)
	}{
		{"eth/C", 23768, 0xd7fb3b53679a18a6, func(cfg core.Config) (*core.Result, error) {
			return escat.Run(context.Background(), cfg, escat.Ethylene(), escat.VersionC())
		}},
		{"prism/C", 11396, 0x4f35ba3c6c1263b6, func(cfg core.Config) (*core.Result, error) {
			return prism.Run(context.Background(), cfg, prism.TestProblem(), prism.VersionC())
		}},
	}
	cfg := core.Config{Seed: 1, Tiers: clientOnTiers()}
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
		if res.Client.Hits == 0 {
			t.Errorf("%s: client tier on but zero hits", g.key)
		}
	}
}

// TestClientVariantsShareCanonicalRuns pins the singleflight contract:
// the tiers-off variant of the clientcache sweep summarizes the
// canonical trace run, not a re-execution — one summary object, shared
// with the cachewhatif sweep's cache-off rung, with the canonical trace
// still held.
func TestClientVariantsShareCanonicalRuns(t *testing.T) {
	vs := clientVariants()
	if vs[0].tiers.Enabled() {
		t.Fatalf("first variant %q has tiers enabled", vs[0].id)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.id] {
			t.Errorf("duplicate variant id %q", v.id)
		}
		seen[v.id] = true
	}
	s := NewSuite(1)
	canonical, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.underTiers(prismC, vs[0].tiers)
	if err != nil {
		t.Fatal(err)
	}
	cacheOff, err := s.underTiers(prismC, cacheVariants()[0].tiers)
	if err != nil {
		t.Fatal(err)
	}
	if shared != cacheOff {
		t.Error("the tiers-off clientcache and cachewhatif rungs hold different summaries of prism/C")
	}
	if traced, measured := s.runKinds(); traced != 1 || measured != 0 {
		t.Errorf("suite holds %d trace runs and %d measured runs, want 1 and 0 — a tiers-off rung re-ran prism/C",
			traced, measured)
	}
	if shared.Events != canonical.Trace.Len() || shared.Digest != canonical.Trace.Digest() {
		t.Errorf("tiers-off summary (%d events, %#016x) is not prism/C's trace (%d events, %#016x)",
			shared.Events, shared.Digest, canonical.Trace.Len(), canonical.Trace.Digest())
	}
	if canonical.Trace.Len() == 0 {
		t.Error("summarizing prism/C released its trace")
	}
	if _, ok := ByID("clientcache"); !ok {
		t.Error("clientcache experiment not registered")
	}
}
