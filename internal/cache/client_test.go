package cache

import (
	"fmt"
	"testing"
	"time"

	"paragonio/internal/disk"
	"paragonio/internal/mesh"
	"paragonio/internal/sim"
)

func newClientRig(t testing.TB, cfg ClientConfig) (*sim.Kernel, *ClientTier) {
	t.Helper()
	full, err := cfg.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	m := testMesh(t)
	ct, err := NewClientTier(k, m, full)
	if err != nil {
		t.Fatal(err)
	}
	return k, ct
}

func TestClientConfigDefaults(t *testing.T) {
	c, err := ClientConfig{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.CapacityBytes != 1<<20 || c.LeaseTTL != DefaultClientTTL {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	bad := []ClientConfig{
		{CapacityBytes: 1024}, // less than one block
		{LeaseTTL: -time.Second},
	}
	for i, b := range bad {
		if _, err := b.WithDefaults(); err == nil {
			t.Errorf("bad config %d (%+v) validated", i, b)
		}
	}
}

func TestTiersDefaultsAndValidate(t *testing.T) {
	ti, err := Tiers{
		IONode: &Config{WriteBehind: true},
		Client: &ClientConfig{},
	}.WithDefaults(64*1024, disk.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !ti.Enabled() || ti.IONode.DirtyHighWater == 0 || ti.Client.CapacityBytes == 0 {
		t.Fatalf("defaults not applied: %+v / %+v", ti.IONode, ti.Client)
	}
	if err := validateTiers(ti, 64*1024); err != nil {
		t.Fatal(err)
	}
	if (Tiers{}).Enabled() {
		t.Fatal("zero Tiers reports enabled")
	}
	if err := validateTiers(Tiers{}, 64*1024); err != nil {
		t.Fatalf("zero Tiers must validate (all tiers off): %v", err)
	}
	if _, err := (Tiers{Client: &ClientConfig{LeaseTTL: -1}}).WithDefaults(64*1024, disk.DefaultParams()); err == nil {
		t.Fatal("bad client config survived Tiers.WithDefaults")
	}
}

// TestClientTierBasics drives the tier directly from a process: miss,
// install, hit, expiry, and the hit/miss statistics.
func TestClientTierBasics(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{LeaseTTL: 10 * time.Millisecond})
	k.Spawn("driver", func(p *sim.Proc) {
		if _, hit := ct.Read(0, 0, 0, 4096); hit {
			t.Error("cold read hit")
		}
		ct.Install(0, 0, 0, 4096)
		d, hit := ct.Read(0, 0, 0, 4096)
		if !hit {
			t.Error("warm read missed")
		}
		if want := clientHitCost + ct.CopyCost(4096); d != want {
			t.Errorf("hit cost %v, want %v", d, want)
		}
		// Age the lease out: the same block must miss and count an
		// expiry.
		p.Wait(11 * time.Millisecond)
		if _, hit := ct.Read(0, 0, 0, 4096); hit {
			t.Error("expired lease served a hit")
		}
		st := ct.Stats()
		if st.Hits != 1 || st.Misses != 2 || st.LeaseExpired != 1 {
			t.Errorf("stats: %+v", st)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClientWriteInvalidation: a write recalls a peer's valid lease,
// counts the averted stale read, and prices the round-trip at mesh
// latency; expired holders cost nothing, and their copies stay resident
// but unleased until their node's next lookup drops them.
func TestClientWriteInvalidation(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{LeaseTTL: 10 * time.Millisecond})
	m := testMesh(t)
	var seen [ClientEvict + 1]int
	ct.SetObserver(func(op ClientOp) { seen[op.Kind]++ })
	stats := func() ClientStats {
		st := ct.Stats()
		if st.StaleAverted != st.Recalls {
			t.Errorf("StaleAverted %d != Recalls %d", st.StaleAverted, st.Recalls)
		}
		return st
	}
	k.Spawn("driver", func(p *sim.Proc) {
		ct.Install(3, 0, 0, 4096) // peer holds block 0
		d := ct.Write(9, 0, 0, 4096)
		want := m.Transfer(9, 3, clientRecallBytes) + m.Transfer(3, 9, 0)
		if d != want {
			t.Errorf("recall cost %v, want mesh round-trip %v", d, want)
		}
		if _, hit := ct.Read(3, 0, 0, 4096); hit {
			t.Error("peer still hits after recall")
		}
		st := stats()
		if st.Recalls != 1 || st.StaleAverted != 1 || st.RecallRounds != 1 {
			t.Errorf("stats after recall: %+v", st)
		}
		// Writer's own copy stays resident (full-cover write-update).
		if _, hit := ct.Read(9, 0, 0, 4096); !hit {
			t.Error("writer lost its own fresh copy")
		}
		// Expired holders are skipped for free, but their copies stay:
		// the writer's new copy of block 2 joins peer 3's unleased one.
		ct.Install(3, 0, 8192, 4096)
		p.Wait(11 * time.Millisecond)
		if d := ct.Write(9, 0, 8192, 4096); d != 0 {
			t.Errorf("recalling an expired holder cost %v, want 0", d)
		}
		if st := stats(); st.Blocks != 3 || st.Recalls != 1 {
			t.Errorf("after skipping an expired holder: %+v, want 3 blocks and 1 recall", st)
		}
		// Peer 3's next lookup drops the unleased copy.
		expires := seen[ClientExpire]
		if _, hit := ct.Read(3, 0, 8192, 4096); hit {
			t.Error("unleased copy served a hit")
		}
		if st := stats(); st.LeaseExpired != 1 || st.Blocks != 2 || seen[ClientExpire] != expires+1 {
			t.Errorf("after the unleased copy's lookup: %+v, %d ClientExpire events (was %d)", st, seen[ClientExpire], expires)
		}
		// A stream whose only copy is unleased: recalling it is free.
		ct.Install(3, 1, 0, 4096)
		p.Wait(11 * time.Millisecond)
		ct.Write(9, 1, 0, 100) // partial, no writer copy: leaves peer 3's copy unleased
		recalls := seen[ClientRecall]
		if d := ct.RecallStream(9, 1); d != 0 || seen[ClientRecall] != recalls {
			t.Errorf("recalling an unleased-only stream cost %v and emitted %d ClientRecall", d, seen[ClientRecall]-recalls)
		}
		if st := stats(); st.Blocks != 3 {
			t.Errorf("stream recall dropped an unleased copy: %+v", st)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClientRecallAllocs: a warm write-and-recall round allocates
// nothing. Dropped copies go to the tier's spare list for the next
// installs, and a write or stream recall collects its peers in one
// buffer the tier owns.
func TestClientRecallAllocs(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{LeaseTTL: time.Hour})
	round := func() {
		for pass := 0; pass < 2; pass++ {
			for peer := 1; peer <= 4; peer++ {
				ct.Install(peer, 0, 0, 4096)
			}
			if pass == 0 {
				ct.Write(0, 0, 0, 4096)
			} else {
				ct.RecallStream(0, 0)
			}
		}
	}
	k.Spawn("driver", func(p *sim.Proc) {
		round()
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("warm write-and-recall round: %v allocs, want 0", n)
		}
		// 102 rounds: AllocsPerRun runs one more to warm up.
		if st := ct.Stats(); st.Recalls != 8*102 || st.Blocks != 0 {
			t.Errorf("stats: %+v", st)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClientRacedFill: a fill that a write overtakes is discarded
// instead of installing possibly-stale bytes under a fresh lease.
func TestClientRacedFill(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{})
	k.Spawn("driver", func(p *sim.Proc) {
		if _, hit := ct.Read(0, 0, 0, 4096); hit { // records the pending fill
			t.Error("cold read hit")
		}
		ct.Write(1, 0, 0, 4096) // write lands while the fill is in flight
		ct.Install(0, 0, 0, 4096)
		if _, hit := ct.Read(0, 0, 0, 4096); hit {
			t.Error("raced fill was installed and served")
		}
		if st := ct.Stats(); st.RacedFills != 1 {
			t.Errorf("RacedFills = %d, want 1", st.RacedFills)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClientPartialWriteRules pins the self-copy rules: a partial write
// over a still-leased copy keeps it (old bytes were current, new bytes
// are ours); a partial write with no valid copy cannot cache the block.
func TestClientPartialWriteRules(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{LeaseTTL: 10 * time.Millisecond})
	k.Spawn("driver", func(p *sim.Proc) {
		ct.Install(0, 0, 0, 4096)
		ct.Write(0, 0, 100, 50) // partial, lease valid → copy stays
		if _, hit := ct.Read(0, 0, 0, 4096); !hit {
			t.Error("partial write over leased copy dropped it")
		}
		p.Wait(11 * time.Millisecond) // lease dies
		ct.Write(0, 0, 100, 50)       // partial, lease expired → copy dropped
		if _, hit := ct.Read(0, 0, 0, 4096); hit {
			t.Error("partial write over expired copy kept stale bytes")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClientEviction: capacity pressure evicts LRU blocks and clears
// their directory registrations (no phantom recalls afterwards).
func TestClientEviction(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{CapacityBytes: 2 * 4096})
	k.Spawn("driver", func(p *sim.Proc) {
		ct.Install(0, 0, 0, 3*4096) // 3 blocks into a 2-block cache
		st := ct.Stats()
		if st.Evicted != 1 || st.Blocks != 2 {
			t.Errorf("stats after overfill: %+v", st)
		}
		// The evicted block (idx 0, the LRU) must not cost the writer a
		// recall round-trip.
		if d := ct.Write(1, 0, 0, 4096); d != 0 {
			t.Errorf("evicted block still registered: recall cost %v", d)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClientTierHit(b *testing.B) {
	k, ct := newClientRig(b, ClientConfig{LeaseTTL: time.Hour})
	done := make(chan struct{})
	k.Spawn("bench", func(p *sim.Proc) {
		defer close(done)
		ct.Install(0, 0, 0, 4096)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, hit := ct.Read(0, 0, 0, 4096); !hit {
				b.Error("unexpected miss")
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	<-done
}

// BenchmarkClientTierChurn is the miss path of the clientcache rungs:
// one node cycles over a working set twice its capacity, split across 2
// streams, so every op is a miss, an install and a capacity eviction.
func BenchmarkClientTierChurn(b *testing.B) {
	const capBlocks = 1024
	k, ct := newClientRig(b, ClientConfig{LeaseTTL: time.Hour, CapacityBytes: capBlocks * 4096})
	streams := [2]int32{0, 1}
	done := make(chan struct{})
	k.Spawn("bench", func(p *sim.Proc) {
		defer close(done)
		// Warm up to capacity so the timed loop evicts on every install.
		for i := 0; i < 2*capBlocks; i++ {
			off := int64(i/2%capBlocks) * 4096
			ct.Install(0, streams[i%2], off, 4096)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stream := streams[i%2]
			off := int64(i/2%capBlocks) * 4096
			if _, hit := ct.Read(0, stream, off, 4096); hit {
				b.Error("unexpected hit")
				return
			}
			ct.Install(0, stream, off, 4096)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	<-done
}

func BenchmarkClientTierRecall(b *testing.B) {
	k, ct := newClientRig(b, ClientConfig{LeaseTTL: time.Hour, CapacityBytes: 64 << 20})
	done := make(chan struct{})
	k.Spawn("bench", func(p *sim.Proc) {
		defer close(done)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// 4 peers re-register each round; the writer recalls them all.
			for peer := 1; peer <= 4; peer++ {
				ct.Install(peer, 0, 0, 4096)
			}
			if d := ct.Write(0, 0, 0, 4096); d == 0 {
				b.Error("no recall cost")
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	<-done
}

func TestClientStatsHitRatio(t *testing.T) {
	if r := (ClientStats{}).HitRatio(); r != 0 {
		t.Fatalf("empty hit ratio %v", r)
	}
	s := ClientStats{Hits: 3, Misses: 1}
	if r := s.HitRatio(); r != 0.75 {
		t.Fatalf("hit ratio %v, want 0.75", r)
	}
}

func TestClientTierRejectsNilMesh(t *testing.T) {
	cfg, err := ClientConfig{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClientTier(sim.NewKernel(), nil, cfg); err == nil {
		t.Fatal("nil mesh accepted")
	}
	if _, err := NewClientTier(sim.NewKernel(), testMesh(t), ClientConfig{}); err == nil {
		t.Fatal("unvalidated zero config accepted")
	}
}

// TestClientMultiBlockSpan: a read spanning blocks hits only when every
// block is valid, and per-block accounting reflects the span width.
func TestClientMultiBlockSpan(t *testing.T) {
	k, ct := newClientRig(t, ClientConfig{})
	k.Spawn("driver", func(p *sim.Proc) {
		ct.Install(0, 0, 0, 2*4096)
		if _, hit := ct.Read(0, 0, 0, 3*4096); hit {
			t.Error("span with a missing block hit")
		}
		ct.Install(0, 0, 0, 3*4096)
		if _, hit := ct.Read(0, 0, 100, 2*4096); !hit {
			t.Error("fully resident span missed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func ExampleClientTier() {
	k := sim.NewKernel()
	m, _ := mesh.New(mesh.DefaultConfig())
	cfg, _ := ClientConfig{}.WithDefaults()
	ct, _ := NewClientTier(k, m, cfg)
	k.Spawn("demo", func(p *sim.Proc) {
		ct.Install(0, 0, 0, 8192)
		_, hit := ct.Read(0, 0, 0, 4096)
		fmt.Println("node 0 warm read hit:", hit)
		ct.Write(1, 0, 0, 4096) // node 1 writes → recall
		_, hit = ct.Read(0, 0, 0, 4096)
		fmt.Println("node 0 read after peer write hit:", hit)
	})
	k.Run()
	// Output:
	// node 0 warm read hit: true
	// node 0 read after peer write hit: false
}

// checkClientIndex reports the first disagreement between the client
// tier's directory and its nodes' LRU lists: every copy on a node's list
// appears exactly once in the copies of the entry its key names, every
// copy is on its node's list, copies are sorted by node id with no node
// twice, a leased copy carries its entry's version, and each node's
// count equals its list length and is at most capBlocks.
func checkClientIndex(ct *ClientTier) error {
	onList := make(map[*clientBlock]bool)
	for id, nc := range ct.nodes {
		if nc == nil {
			continue
		}
		n := 0
		var prev *clientBlock
		for b := nc.mru; b != nil; prev, b = b, b.next {
			if b.node != id || b.prev != prev || onList[b] {
				return fmt.Errorf("node %d: list is broken at block %d/%d (node %d)", id, b.key.stream(), b.key.idx(), b.node)
			}
			onList[b] = true
			n++
			if ct.dirs[b.key.stream()].lookup(id, b.key.idx()) != b {
				return fmt.Errorf("node %d: block %d/%d is not its entry's copy", id, b.key.stream(), b.key.idx())
			}
			if c := timesListed(b.entry.copies, b); c != 1 {
				return fmt.Errorf("node %d: block %d/%d listed %d times in its entry", id, b.key.stream(), b.key.idx(), c)
			}
		}
		if nc.lru != prev || n != nc.resident || n > ct.capBlocks {
			return fmt.Errorf("node %d: %d on the list, count %d, capacity %d", id, n, nc.resident, ct.capBlocks)
		}
	}
	for sid, d := range ct.dirs {
		if d == nil {
			continue
		}
		for i, p := range d.pages {
			for j := range p {
				e := &p[j]
				for c, b := range e.copies {
					idx := d.nums[i]<<clientDirPageBits + int64(j)
					switch {
					case !onList[b] || b.entry != e:
						return fmt.Errorf("block %d/%d: node %d's copy is not on its list", sid, idx, b.node)
					case c > 0 && e.copies[c-1].node >= b.node:
						return fmt.Errorf("block %d/%d: copies out of node order at node %d", sid, idx, b.node)
					case b.leased && b.version != e.version:
						return fmt.Errorf("block %d/%d: node %d leases version %d of %d", sid, idx, b.node, b.version, e.version)
					}
				}
			}
		}
	}
	return nil
}

func timesListed(copies []*clientBlock, b *clientBlock) int {
	n := 0
	for _, c := range copies {
		if c == b {
			n++
		}
	}
	return n
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
