package pfs

import (
	"testing"

	"paragonio/internal/cache"
	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// TestTiersConfig pins the cache.Tiers configuration path: Tiers.IONode
// enables the buffer cache, zero fields are defaulted at New, and the
// resolved config is visible through Config().
func TestTiersConfig(t *testing.T) {
	cfg := DefaultConfig(testMesh(t))
	cfg.Tiers.IONode = &cache.Config{WriteBehind: true}
	fs, err := New(sim.NewKernel(), cfg, pablo.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	if fs.CacheStats() == nil {
		t.Error("Tiers.IONode did not enable the I/O-node tier")
	}
	got := fs.Config()
	if got.Tiers.IONode == nil {
		t.Fatal("resolved Tiers.IONode not visible through Config()")
	}
	if got.Tiers.IONode.CapacityBytes == 0 || got.Tiers.IONode.DirtyHighWater == 0 {
		t.Error("resolved config not defaulted")
	}

	// Tiers off: no cache, and CacheStats reports nil.
	cfg = DefaultConfig(testMesh(t))
	fs, err = New(sim.NewKernel(), cfg, pablo.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	if fs.CacheStats() != nil {
		t.Error("zero Tiers enabled a cache")
	}
}
