package pfs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// The coherence oracle: an independent record of each block's current
// version, fed only by the tier's write events. The property under test
// is that no read is ever served a block older than the last write —
// i.e. every ClientHit reports exactly the version the oracle expects.
// Versions exist in the tier purely for this check, so the oracle is
// not circular: the tier decides *whether* to serve locally from leases
// and recalls alone; the oracle checks that decision against the
// ground-truth write history.
type coherenceOracle struct {
	t        *testing.T
	versions map[int32]map[int64]uint64
	hits     int
	writes   int
	recalls  int
	expired  int
	failed   bool
}

func newCoherenceOracle(t *testing.T) *coherenceOracle {
	return &coherenceOracle{t: t, versions: make(map[int32]map[int64]uint64)}
}

func (o *coherenceOracle) observe(op cache.ClientOp) {
	if o.failed {
		return
	}
	cur := o.versions[op.Stream]
	if cur == nil {
		cur = make(map[int64]uint64)
		o.versions[op.Stream] = cur
	}
	switch op.Kind {
	case cache.ClientWrite:
		o.writes++
		if want := cur[op.Block] + 1; op.Version != want {
			o.failed = true
			o.t.Errorf("write to stream %d[%d] produced version %d, oracle expects %d",
				op.Stream, op.Block, op.Version, want)
		}
		cur[op.Block] = op.Version
	case cache.ClientHit:
		o.hits++
		if want := cur[op.Block]; op.Version != want {
			o.failed = true
			o.t.Errorf("STALE READ: node %d served stream %d[%d] at version %d, last write was %d",
				op.Node, op.Stream, op.Block, op.Version, want)
		}
	case cache.ClientRecall:
		o.recalls++
	case cache.ClientExpire:
		o.expired++
	}
}

// coherenceRig builds a platform with the client tier tuned so every
// interesting transition fires: a tiny per-node capacity (evictions), a
// short lease TTL against multi-millisecond compute gaps (expiries), and
// a small block size over a shared file (cross-node write sharing →
// recalls and raced fills).
func coherenceRig(t *testing.T, ttl time.Duration) (*sim.Kernel, *FileSystem) {
	t.Helper()
	k := sim.NewKernel()
	m := testMesh(t)
	cfg := DefaultConfig(m)
	cfg.Tiers.Client = &cache.ClientConfig{
		CapacityBytes: 64 * 1024, // 16 blocks: forces evictions
		LeaseTTL:      ttl,
	}
	fs, err := New(k, cfg, pablo.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	return k, fs
}

// TestCoherenceOracle runs randomized multi-handle read/write schedules
// over one shared file through every handle combination the protocol
// must cover — two individual opens on distinct nodes, two handles on
// one node, and a gopen group beside individual opens — and asserts no
// schedule exhibits a stale read.
func TestCoherenceOracle(t *testing.T) {
	const fileName = "shared.dat"
	const fileSize = 256 * 1024
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k, fs := coherenceRig(t, 5*time.Millisecond)
			fs.CreateFile(fileName, fileSize)
			oracle := newCoherenceOracle(t)
			fs.ClientTier().SetObserver(oracle.observe)

			// Nodes 0 and 1: individual opens (node 0 holds two
			// handles on the same stream). Nodes 2 and 3: a gopen
			// group in the same (M_ASYNC) discipline.
			group, err := fs.NewGroup([]int{2, 3})
			if err != nil {
				t.Fatal(err)
			}
			for node := 0; node < 4; node++ {
				node := node
				rng := rand.New(rand.NewSource(seed*7919 + int64(node)))
				k.Spawn(fmt.Sprintf("node-%d", node), func(p *sim.Proc) {
					var handles []*Handle
					switch {
					case node < 2:
						h, err := fs.Open(p, node, fileName, MAsync)
						if err != nil {
							t.Error(err)
							return
						}
						handles = append(handles, h)
						if node == 0 {
							h2, err := fs.Open(p, node, fileName, MAsync)
							if err != nil {
								t.Error(err)
								return
							}
							handles = append(handles, h2)
						}
					default:
						h, err := group.Gopen(p, node, fileName, MAsync)
						if err != nil {
							t.Error(err)
							return
						}
						handles = append(handles, h)
					}
					for i := 0; i < 120; i++ {
						h := handles[rng.Intn(len(handles))]
						off := rng.Int63n(fileSize - 8*1024)
						size := 1 + rng.Int63n(8*1024)
						if err := h.Seek(p, off); err != nil {
							t.Error(err)
							return
						}
						if rng.Intn(10) < 7 {
							if _, err := h.Read(p, size); err != nil {
								t.Error(err)
								return
							}
						} else {
							if _, err := h.Write(p, size); err != nil {
								t.Error(err)
								return
							}
						}
						// Compute gaps longer than the lease TTL age
						// some leases out between touches.
						p.Wait(time.Duration(rng.Int63n(int64(6 * time.Millisecond))))
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if oracle.failed {
				return // specifics already reported
			}
			// The schedule must actually exercise the protocol, or
			// the pass is vacuous.
			if oracle.hits == 0 || oracle.writes == 0 {
				t.Fatalf("vacuous schedule: hits=%d writes=%d", oracle.hits, oracle.writes)
			}
			if oracle.recalls == 0 {
				t.Fatalf("no lease recalls fired; schedule does not test invalidation")
			}
			if oracle.expired == 0 {
				t.Fatalf("no leases expired; schedule does not test expiry")
			}
			st := fs.ClientStats()
			if st.Evicted == 0 {
				t.Fatalf("no evictions; capacity pressure missing (stats: %+v)", st)
			}
			if st.StaleAverted == 0 {
				t.Fatalf("no stale reads averted; recalls never caught a resident copy")
			}
		})
	}
}

// TestSetIOModeRecallsLeases pins the setiomode renegotiation path: a
// reader caches blocks, a peer's setiomode recalls them, and the next
// read misses instead of serving the (still resident-looking) copy.
func TestSetIOModeRecallsLeases(t *testing.T) {
	// A lease long enough to survive the metadata queueing in front of
	// the peer's setiomode — the recall must catch a *valid* lease.
	k, fs := coherenceRig(t, 10*time.Second)
	fs.CreateFile("f.dat", 64*1024)
	var events []cache.ClientOp
	fs.ClientTier().SetObserver(func(op cache.ClientOp) { events = append(events, op) })

	k.Spawn("reader", func(p *sim.Proc) {
		h, err := fs.Open(p, 0, "f.dat", MAsync)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Read(p, 4096); err != nil {
			t.Error(err)
			return
		}
		if err := h.Seek(p, 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Read(p, 4096); err != nil { // warm: local hit
			t.Error(err)
			return
		}
		p.Wait(5 * time.Second) // let the peer's setiomode land
		if err := h.Seek(p, 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Read(p, 4096); err != nil { // must miss again
			t.Error(err)
			return
		}
	})
	k.Spawn("renegotiator", func(p *sim.Proc) {
		h, err := fs.Open(p, 1, "f.dat", MAsync)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.SetIOMode(p, MAsync); err != nil {
			t.Error(err)
			return
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	var recalls, missesAfterRecall int
	sawRecall := false
	for _, op := range events {
		if op.Kind == cache.ClientRecall && op.Node == 0 {
			recalls++
			sawRecall = true
		}
		if sawRecall && op.Kind == cache.ClientMiss && op.Node == 0 {
			missesAfterRecall++
		}
	}
	if recalls == 0 {
		t.Fatalf("setiomode recalled no leases; events: %+v", events)
	}
	if missesAfterRecall == 0 {
		t.Fatalf("read after recall did not miss; events: %+v", events)
	}
	if st := fs.ClientStats(); st.FileRecalls != 1 {
		t.Fatalf("FileRecalls = %d, want 1", st.FileRecalls)
	}
}
