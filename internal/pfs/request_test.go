package pfs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// chunksByIONode is the reference splitter, the data path's own before
// requests were recycled: it splits [off, off+size) into per-I/O-node
// chunk lists, returned as a slice indexed by I/O node (nil entries are
// uninvolved) together with the involved I/O nodes in ascending order.
// Chunks on the same I/O node are kept in ascending offset order.
func (fs *FileSystem) chunksByIONode(f *file, off, size int64) ([][]chunk, []int) {
	lists := make([][]chunk, len(fs.ios))
	involved := 0
	u := fs.cfg.StripeUnit
	for size > 0 {
		stripe := off / u
		io := (f.base + int(stripe%int64(len(fs.ios)))) % len(fs.ios)
		inStripe := off % u
		n := u - inStripe
		if n > size {
			n = size
		}
		if lists[io] == nil {
			involved++
		}
		lists[io] = append(lists[io], chunk{off: off, size: n})
		off += n
		size -= n
	}
	ios := make([]int, 0, involved)
	for io, l := range lists {
		if l != nil {
			ios = append(ios, io)
		}
	}
	return lists, ios
}

// splitChunks runs the splitter on a healthy file system (so each
// request's physical node is its logical one) and returns its result in
// the reference's shape, putting the requests back on the free list.
func splitChunks(fs *FileSystem, f *file, off, size int64) ([][]chunk, []int) {
	lists := make([][]chunk, len(fs.ios))
	var ios []int
	qs := fs.split(0, f, off, size, false)
	for _, q := range qs {
		io := q.n.idx
		lists[io] = append([]chunk(nil), q.chunks...)
		ios = append(ios, io)
	}
	recycle(fs, qs)
	return lists, ios
}

// recycle puts split requests that were never sent back on the free
// list.
func recycle(fs *FileSystem, qs []*request) {
	for _, q := range qs {
		q.f, q.n = nil, nil
		q.next = fs.freeReqs
		fs.freeReqs = q
	}
}

// TestSplitMatchesReference: for random (offset, size) requests, on
// stripe units and I/O-node counts that do and do not divide the
// request, the splitter yields the reference's chunks in the
// reference's I/O-node order, and routes each request to its own node
// on a healthy machine.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, geo := range []struct {
		unit    int64
		ionodes int
	}{{DefaultStripeUnit, 16}, {DefaultStripeUnit, 3}, {4096, 1}, {1000, 7}} {
		cfg := DefaultConfig(testMesh(t))
		cfg.StripeUnit, cfg.IONodes = geo.unit, geo.ionodes
		fs, err := New(sim.NewKernel(), cfg, pablo.Discard)
		if err != nil {
			t.Fatal(err)
		}
		fs.CreateFile("f", 1<<40)
		f := fs.lookup("f", false)
		for i := 0; i < 2000; i++ {
			off := rng.Int63n(1 << 32)
			size := rng.Int63n(int64(geo.ionodes+2)*geo.unit*2) + 1
			wantLists, wantIOs := fs.chunksByIONode(f, off, size)
			qs := fs.split(3, f, off, size, true)
			if len(qs) != len(wantIOs) {
				t.Fatalf("unit %d ionodes %d off=%d size=%d: %d requests, want %d",
					geo.unit, geo.ionodes, off, size, len(qs), len(wantIOs))
			}
			for j, q := range qs {
				if q.n.idx != wantIOs[j] || q.node != 3 || q.f != f || !q.write {
					t.Fatalf("off=%d size=%d: request %d on node %d (from %d, write %v), want I/O node %d",
						off, size, j, q.n.idx, q.node, q.write, wantIOs[j])
				}
				if !reflect.DeepEqual(q.chunks, wantLists[wantIOs[j]]) {
					t.Fatalf("off=%d size=%d: I/O node %d chunks %v, want %v",
						off, size, wantIOs[j], q.chunks, wantLists[wantIOs[j]])
				}
			}
			recycle(fs, qs)
			for io, q := range fs.byIONode {
				if q != nil {
					t.Fatalf("splitter scratch keeps a request for I/O node %d", io)
				}
			}
		}
	}
}

// FuzzSplit checks the splitter against the reference over offset,
// size, stripe unit, I/O-node count and file base: on a healthy machine
// every request is routed to its own I/O node and holds the reference's
// chunks for it, in the reference's order; recycle returns every
// request to the free list; and the splitter's scratch is left empty.
func FuzzSplit(f *testing.F) {
	const u = DefaultStripeUnit
	f.Add(uint64(100), uint32(1000), uint32(u), uint8(16), uint8(9))           // single stripe unit
	f.Add(uint64(u-10), uint32(20), uint32(u), uint8(16), uint8(3))            // straddles a stripe boundary
	f.Add(uint64(0), uint32(16*u), uint32(u), uint8(16), uint8(5))             // one full stripe cycle
	f.Add(uint64(7), uint32(3*3*4096+5), uint32(4096), uint8(3), uint8(2))     // wraps the cycle, unaligned
	f.Add(uint64(1<<33+999), uint32(7*1000), uint32(1000), uint8(7), uint8(6)) // unit divides no power of two
	f.Add(uint64(5), uint32(0), uint32(u), uint8(16), uint8(0))                // empty
	m := testMesh(f)
	f.Fuzz(func(t *testing.T, rawOff uint64, rawSize, rawUnit uint32, rawIONodes, rawBase uint8) {
		unit := 1 + int64(rawUnit%(1<<20))
		ionodes := 1 + int(rawIONodes%64)
		off := int64(rawOff % (1 << 40))
		size := int64(rawSize) % (unit*int64(2*ionodes+3) + 1)
		cfg := DefaultConfig(m)
		cfg.StripeUnit, cfg.IONodes = unit, ionodes
		fs, err := New(sim.NewKernel(), cfg, pablo.Discard)
		if err != nil {
			t.Fatal(err)
		}
		fs.CreateFile("f", 1<<41)
		file := fs.lookup("f", false)
		file.base = int(rawBase) % ionodes

		wantLists, wantIOs := fs.chunksByIONode(file, off, size)
		qs := fs.split(2, file, off, size, true)
		if len(qs) != len(wantIOs) {
			t.Fatalf("%d requests, want %d", len(qs), len(wantIOs))
		}
		for i, q := range qs {
			if q.n.idx != wantIOs[i] || q.node != 2 || q.f != file || !q.write {
				t.Fatalf("request %d on I/O node %d (from %d, write %v), want I/O node %d",
					i, q.n.idx, q.node, q.write, wantIOs[i])
			}
			if !reflect.DeepEqual(q.chunks, wantLists[wantIOs[i]]) {
				t.Fatalf("I/O node %d chunks %v, want %v", wantIOs[i], q.chunks, wantLists[wantIOs[i]])
			}
		}
		for io, q := range fs.byIONode {
			if q != nil {
				t.Fatalf("splitter scratch keeps a request for I/O node %d", io)
			}
		}
		recycle(fs, qs)
		free := make(map[*request]bool)
		for q := fs.freeReqs; q != nil; q = q.next {
			free[q] = true
		}
		if len(free) != len(qs) {
			t.Fatalf("free list holds %d requests after recycling %d", len(free), len(qs))
		}
		for i, q := range qs {
			if !free[q] {
				t.Fatalf("request %d did not come back to the free list", i)
			}
		}
	})
}

// TestDataPathAllocatesNothing pins that a steady-state transfer
// allocates nothing once the request and holder free lists and the
// event queue have reached their working size: an unbuffered read
// inside one stripe unit, a 1 MB read striped over all 16 I/O nodes,
// and a 1 MB rewrite through write-behind I/O-node caches under both
// flush policies, whose flusher passes run between the rewrites.
func TestDataPathAllocatesNothing(t *testing.T) {
	writeBehind := func(deadline time.Duration) *cache.Config {
		return &cache.Config{WriteBehind: true, CapacityBytes: 64 << 20,
			IdleFlush: time.Millisecond, FlushDeadline: deadline}
	}
	for _, tc := range []struct {
		name  string
		cache *cache.Config
		size  int64
		write bool
	}{
		{"single-stripe", nil, 1024, false},
		{"striped", nil, 1 << 20, false},
		{"write-behind-idle", writeBehind(0), 1 << 20, true},
		{"write-behind-deadline", writeBehind(5 * time.Millisecond), 1 << 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			cfg := DefaultConfig(testMesh(t))
			cfg.Tiers.IONode = tc.cache
			fs, err := New(k, cfg, pablo.Discard)
			if err != nil {
				t.Fatal(err)
			}
			fs.CreateFile("f", 1<<40)
			allocs := -1.0
			k.Spawn("p", func(p *sim.Proc) {
				h, _ := fs.Open(p, 0, "f", MAsync)
				h.SetBuffering(false)
				allocs = testing.AllocsPerRun(200, func() {
					var n int64
					var err error
					if tc.write {
						if err = h.Seek(p, 0); err == nil {
							n, err = h.Write(p, tc.size)
						}
						p.Wait(20 * time.Millisecond) // let the flusher run
					} else {
						n, err = h.Read(p, tc.size)
					}
					if err != nil || n != tc.size {
						t.Errorf("transfer = %d, %v", n, err)
					}
				})
				h.Close(p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%d-byte transfer allocates %v objects per call, want 0", tc.size, allocs)
			}
			if tc.cache != nil {
				var flushes uint64
				for _, s := range fs.CacheStats() {
					flushes += s.Flushes
				}
				if flushes == 0 {
					t.Fatal("no flusher pass ran")
				}
			}
		})
	}
}

// TestFreeRecordsPinNothing: after a run that issued single-stripe and
// striped reads and writes from several nodes, plus log-tier drains,
// every recycled request holds no join, file or node, and every
// recycled join no process, continuation or pending count.
func TestFreeRecordsPinNothing(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(testMesh(t))
	cfg.Tiers.Log = &cache.LogConfig{}
	fs, err := New(k, cfg, pablo.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("f", 1<<30)
	for node := 0; node < 4; node++ {
		node := node
		k.Spawn("p", func(p *sim.Proc) {
			h, _ := fs.Open(p, node, "f", MAsync)
			h.SetBuffering(false)
			for i := 0; i < 20; i++ {
				if err := h.Seek(p, int64(node*i)<<16); err != nil {
					t.Error(err)
				}
				if _, err := h.Read(p, int64(i)*40000+1); err != nil {
					t.Error(err)
				}
			}
			h.Close(p)
			g, _ := fs.Open(p, node, "log", MAsync)
			for i := 0; i < 20; i++ {
				if _, err := g.Write(p, int64(i)*30000+1); err != nil {
					t.Error(err)
				}
			}
			g.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	reqs, joins := 0, 0
	for q := fs.freeReqs; q != nil; q = q.next {
		reqs++
		if q.j != nil || q.f != nil || q.n != nil {
			t.Fatalf("free request %d pins j=%v f=%v n=%v", reqs, q.j != nil, q.f, q.n)
		}
	}
	for j := fs.freeJoins; j != nil; j = j.next {
		joins++
		if j.p != nil || j.then != nil || j.pending != 0 {
			t.Fatalf("free join %d pins p=%v then=%v (pending %d)", joins, j.p, j.then != nil, j.pending)
		}
	}
	if reqs < 16 || joins == 0 {
		t.Fatalf("free lists hold %d requests and %d joins: the run did not stripe", reqs, joins)
	}
}
