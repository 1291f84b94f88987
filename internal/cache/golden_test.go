package cache

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"paragonio/internal/sim"
)

// Event-stream goldens for both block tiers. Each drives a tier with a
// fixed-seed random operation mix and pins the FNV-1a digest of
// everything observable: for the client tier every ClientOp the observer
// sees, every returned cost and the final Stats; for the I/O-node cache
// every Access duration and the final Stats. A digest moves only when
// holder, eviction, recall, dirty-list or read-ahead order changes — the
// properties the app-level goldens pin only indirectly.

// Captured on the string-keyed tiers, before block keys were interned;
// the dense-key rewrite had to reproduce them exactly. The I/O-node
// cache's idle-policy half moved once since, when the dirty list replaced
// a FIFO of block ids whose stale slot a block evicted dirty and dirtied
// again could inherit, flushing it ahead of older dirty blocks.
const (
	clientStreamGolden = "f70c0aeff5550d6e"
	ionodeStreamGolden = "621a0d90aded67b0/6ffb4dadc51a5880"
)

// Both drivers use three streams, numbered in sorted-name order. The
// client digest prints each op's stream name, and Flap recalls in id
// order, which is the old sorted-name order, so the goldens captured
// when the tiers keyed streams by name still hold.
var (
	streamNames = []string{"basis", "ckpt", "quad"} // by id
	streamPicks = []int32{1, 2, 0}                  // ckpt, quad, basis: the order the drivers draw from
)

// digestf feeds one formatted line into h.
func digestf(h hash.Hash64, format string, args ...any) {
	fmt.Fprintf(h, format, args...)
	h.Write([]byte{'\n'})
}

// clientStreamDigest runs the randomized client-tier driver: 8 nodes, 3
// streams, an 8-block capacity (so installs evict), a short lease (so
// lookups expire), occasional sparse high offsets, and every mutating
// entry point. The directory and the LRU lists must agree after every
// operation (checkClientIndex).
func clientStreamDigest(t testing.TB, seed int64, ops int) string {
	const bs = clientBlockSize
	k, ct := newClientRig(t, ClientConfig{
		CapacityBytes: 8 * bs,
		LeaseTTL:      20 * time.Millisecond,
	})
	h := fnv.New64a()
	ct.SetObserver(func(op ClientOp) {
		digestf(h, "op %d %d %s %d %d", op.Kind, op.Node, streamNames[op.Stream], op.Block, op.Version)
	})
	streams := streamPicks
	rng := rand.New(rand.NewSource(seed))
	span := func() (off, size int64) {
		idx := rng.Int63n(12)
		if rng.Intn(16) == 0 {
			idx = 1<<20 + rng.Int63n(1<<16) // sparse, far past the dense range
		}
		return idx*bs + rng.Int63n(bs), 1 + rng.Int63n(bs)
	}
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			node := rng.Intn(8)
			stream := streams[rng.Intn(len(streams))]
			switch r := rng.Intn(1000); {
			case r < 700:
				off, size := span()
				d, hit := ct.Read(node, stream, off, size)
				digestf(h, "read %v %v", d, hit)
				if !hit {
					if rng.Intn(4) == 0 {
						// A peer write races the fill.
						digestf(h, "race %v", ct.Write(rng.Intn(8), stream, off, size))
					}
					ct.Install(node, stream, off, size)
				}
			case r < 800:
				off, size := span()
				ct.Install(node, stream, off, size)
			case r < 930:
				off, size := span()
				digestf(h, "write %v", ct.Write(node, stream, off, size))
			case r < 955:
				digestf(h, "recall %v", ct.RecallStream(node, stream))
			case r < 960:
				digestf(h, "flap %v", ct.Flap(node))
			default:
				ct.InvalidateLocal(node, stream)
			}
			if err := checkClientIndex(ct); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
			p.Wait(time.Duration(rng.Int63n(int64(time.Millisecond))))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	digestf(h, "stats %+v", ct.Stats())
	return fmt.Sprintf("%016x", h.Sum64())
}

// ionodeStreamDigest runs the randomized I/O-node cache driver: three
// client processes contend for the node, each mixing sequential and
// strided reads (which arm read-ahead), random reads and write-behind
// writes over 3 streams and a 12-block cache, so eviction, forced
// flushes, prefetch cancellation and flusher passes all happen. deadline
// selects the flush policy.
func ionodeStreamDigest(t *testing.T, seed int64, ops int, deadline time.Duration) string {
	r := newRig(t, func(c *Config) {
		c.ReadAhead = 3
		c.CapacityBytes = 12 * testBlock
		c.DirtyHighWater = 6
		c.FlushBatch = 3
		c.FlushDeadline = deadline
	})
	h := fnv.New64a()
	streams := streamPicks
	for client := 0; client < 3; client++ {
		rng := rand.New(rand.NewSource(seed*10 + int64(client)))
		cursor := make([]int64, len(streams))
		r.k.Spawn(fmt.Sprintf("client-%d", client), func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				s := rng.Intn(len(streams))
				var off, size int64
				write := false
				switch x := rng.Intn(100); {
				case x < 35: // sequential run
					off, size = cursor[s], testBlock
					cursor[s] += testBlock
				case x < 50: // strided run
					off, size = cursor[s]+2*testBlock, testBlock/2
					cursor[s] = off + testBlock
				case x < 65: // random read
					off, size = rng.Int63n(64)*testBlock+rng.Int63n(testBlock), 1+rng.Int63n(2*testBlock)
				default: // write
					off, size = rng.Int63n(48)*testBlock+rng.Int63n(testBlock), 1+rng.Int63n(2*testBlock)
					write = true
				}
				r.res.Acquire(p)
				d := r.c.Access(streams[s], off, size, write)
				p.Wait(d)
				r.res.Release(p)
				if err := checkDirtyList(r.c); err != nil {
					t.Errorf("client %d op %d: %v", client, i, err)
					return
				}
				digestf(h, "access %d %d %d %d %v %v", client, s, off, size, write, d)
				p.Wait(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	digestf(h, "stats %+v end %v", r.c.Stats(), r.k.Now())
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestClientTierEventStreamGolden(t *testing.T) {
	if got := clientStreamDigest(t, 1, 4000); got != clientStreamGolden {
		t.Fatalf("client-tier event stream digest %s, want %s", got, clientStreamGolden)
	}
}

func TestIONodeCacheStreamGolden(t *testing.T) {
	got := ionodeStreamDigest(t, 1, 3000, 0) + "/" + ionodeStreamDigest(t, 2, 3000, 30*time.Millisecond)
	if got != ionodeStreamGolden {
		t.Fatalf("I/O-node cache stream digest %s, want %s", got, ionodeStreamGolden)
	}
}
