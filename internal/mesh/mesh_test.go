package mesh

import (
	"testing"
	"testing/quick"
	"time"
)

func mustDefault(t *testing.T) *Mesh {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero rows", func(c *Config) { c.Rows = 0 }},
		{"zero cols", func(c *Config) { c.Cols = 0 }},
		{"zero bandwidth", func(c *Config) { c.Bandwidth = 0 }},
		{"negative bandwidth", func(c *Config) { c.Bandwidth = -1 }},
		{"negative overhead", func(c *Config) { c.SWOverhead = -time.Second }},
		{"negative perhop", func(c *Config) { c.PerHop = -time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatalf("New accepted invalid config %+v", cfg)
			}
		})
	}
}

func TestDefaultConfigIsPaperMachine(t *testing.T) {
	m := mustDefault(t)
	if m.Nodes() != 512 {
		t.Fatalf("Nodes = %d, want 512", m.Nodes())
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m := mustDefault(t)
	for node := 0; node < m.Nodes(); node++ {
		r, c := m.Coord(node)
		if r < 0 || r >= 16 || c < 0 || c >= 32 {
			t.Fatalf("Coord(%d) = (%d,%d) out of range", node, r, c)
		}
		if r*32+c != node {
			t.Fatalf("Coord(%d) = (%d,%d) does not invert", node, r, c)
		}
	}
}

func TestIONodeCoords(t *testing.T) {
	m := mustDefault(t)
	for io := 0; io < 16; io++ {
		r, c := m.IONodeCoord(io)
		if c != 31 {
			t.Fatalf("I/O node %d at col %d, want last column", io, c)
		}
		if r != io {
			t.Fatalf("I/O node %d at row %d, want %d", io, r, io)
		}
	}
}

// TestIONodeCoordsMultiColumn pins the scaled-machine layout: more I/O
// nodes than rows wrap into the next-to-last column, with no two I/O
// nodes sharing a position.
func TestIONodeCoordsMultiColumn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 128, 128
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for io := 0; io < 256; io++ {
		r, c := m.IONodeCoord(io)
		if r < 0 || r >= 128 || c < 0 || c >= 128 {
			t.Fatalf("I/O node %d at (%d,%d), outside the mesh", io, r, c)
		}
		wantCol := 127 - io/128
		if c != wantCol {
			t.Fatalf("I/O node %d at col %d, want %d", io, c, wantCol)
		}
		pos := [2]int{r, c}
		if seen[pos] {
			t.Fatalf("I/O nodes collide at (%d,%d)", r, c)
		}
		seen[pos] = true
	}
}

func TestHopsManhattan(t *testing.T) {
	m := mustDefault(t)
	if h := m.Hops(0, 0, 0, 0); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
	if h := m.Hops(0, 0, 15, 31); h != 46 {
		t.Fatalf("corner-to-corner = %d, want 46", h)
	}
	if h := m.Hops(3, 7, 5, 2); h != 7 {
		t.Fatalf("hops = %d, want 7", h)
	}
}

func TestTransferGrowsWithSizeAndDistance(t *testing.T) {
	m := mustDefault(t)
	small := m.Transfer(0, 1, 100)
	large := m.Transfer(0, 1, 1<<20)
	if large <= small {
		t.Fatalf("1MB transfer (%v) not slower than 100B (%v)", large, small)
	}
	near := m.Transfer(0, 1, 1024)
	far := m.Transfer(0, 511, 1024)
	if far <= near {
		t.Fatalf("far transfer (%v) not slower than near (%v)", far, near)
	}
}

func TestLocalTransferCheaperThanRemote(t *testing.T) {
	m := mustDefault(t)
	if loc, rem := m.Transfer(5, 5, 1<<16), m.Transfer(5, 6, 1<<16); loc >= rem {
		t.Fatalf("local %v >= remote %v", loc, rem)
	}
}

func TestBroadcastScalesLogarithmically(t *testing.T) {
	m := mustDefault(t)
	b1 := m.Broadcast(1, 1024)
	b2 := m.Broadcast(2, 1024)
	b128 := m.Broadcast(128, 1024)
	b256 := m.Broadcast(256, 1024)
	if b1 != 0 {
		t.Fatalf("Broadcast(1) = %v, want 0", b1)
	}
	if b2 <= 0 {
		t.Fatalf("Broadcast(2) = %v, want > 0", b2)
	}
	// 128 -> 256 doubles the population but adds only one stage.
	if b256-b128 != b2 {
		t.Fatalf("stage increment %v, want %v", b256-b128, b2)
	}
	// Log growth: broadcast to 128 is 7 stages, not 127.
	if b128 != 7*b2 {
		t.Fatalf("Broadcast(128) = %v, want 7 stages of %v", b128, b2)
	}
}

func TestBarrierCosts(t *testing.T) {
	m := mustDefault(t)
	if m.Barrier(1) != 0 {
		t.Fatal("Barrier(1) should be free")
	}
	if m.Barrier(64) >= m.Barrier(128) && m.Barrier(128) != m.Barrier(64) {
		t.Fatalf("Barrier(128)=%v < Barrier(64)=%v", m.Barrier(128), m.Barrier(64))
	}
	if m.Barrier(128) <= 0 {
		t.Fatal("Barrier(128) should be positive")
	}
}

func TestGatherDominatedByRootLink(t *testing.T) {
	m := mustDefault(t)
	// Gathering 1 MB from each of 127 senders must cost at least the time
	// to move 127 MB over one link.
	g := m.Gather(128, 1<<20)
	floor := time.Duration(float64(127<<20) / m.Config().Bandwidth * float64(time.Second))
	if g < floor {
		t.Fatalf("Gather(128, 1MB) = %v, below root-link floor %v", g, floor)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7, 128: 7, 512: 9}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTransferNonNegativeProperty(t *testing.T) {
	m := mustDefault(t)
	f := func(a, b uint16, size uint32) bool {
		from := int64(a) % 512
		to := int64(b) % 512
		return m.Transfer(from, to, int64(size)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferMonotoneInSizeProperty(t *testing.T) {
	m := mustDefault(t)
	f := func(a, b uint16, s1, s2 uint32) bool {
		from := int64(a) % 512
		to := int64(b) % 512
		lo, hi := int64(s1), int64(s2)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.Transfer(from, to, lo) <= m.Transfer(from, to, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsSymmetricProperty(t *testing.T) {
	m := mustDefault(t)
	f := func(r1, c1, r2, c2 uint8) bool {
		a, b := int(r1)%16, int(c1)%32
		c, d := int(r2)%16, int(c2)%32
		return m.Hops(a, b, c, d) == m.Hops(c, d, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequalityProperty(t *testing.T) {
	m := mustDefault(t)
	f := func(r1, c1, r2, c2, r3, c3 uint8) bool {
		a1, b1 := int(r1)%16, int(c1)%32
		a2, b2 := int(r2)%16, int(c2)%32
		a3, b3 := int(r3)%16, int(c3)%32
		return m.Hops(a1, b1, a3, b3) <= m.Hops(a1, b1, a2, b2)+m.Hops(a2, b2, a3, b3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceCosts(t *testing.T) {
	m := mustDefault(t)
	if m.AllReduce(1, 1024) != 0 {
		t.Fatal("AllReduce(1) should be free")
	}
	// Twice the one-way dissemination stages.
	if got, want := m.AllReduce(64, 0), 2*m.Barrier(64); got != want {
		t.Fatalf("AllReduce(64, 0) = %v, want %v", got, want)
	}
	if m.AllReduce(64, 1<<20) <= m.AllReduce(64, 64) {
		t.Fatal("payload should increase allreduce cost")
	}
}

// BenchmarkMeshCollectives times the cost model of each message pattern
// the applications charge: one point-to-point transfer between compute
// nodes, one to an I/O node, and the collectives at the paper's party
// sizes (64 PRISM nodes, 128 ethylene, 256 carbon monoxide). One op is
// one cost evaluation.
func BenchmarkMeshCollectives(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var sink time.Duration
	ops := []struct {
		name string
		cost func(i int) time.Duration
	}{
		{"transfer", func(i int) time.Duration { return m.Transfer(int64(i&511), int64((i*7)&511), 4096) }},
		{"to-ionode", func(i int) time.Duration { return m.TransferToIONode(i&511, i&15, 65536) }},
		{"barrier", func(i int) time.Duration { return m.Barrier(64 << (i % 3)) }},
		{"broadcast", func(i int) time.Duration { return m.Broadcast(64<<(i%3), 65536) }},
		{"allreduce", func(i int) time.Duration { return m.AllReduce(64<<(i%3), 8) }},
		{"gather", func(i int) time.Duration { return m.Gather(64<<(i%3), 2048) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += op.cost(i)
			}
		})
	}
	if sink < 0 {
		b.Fatal("negative mesh cost")
	}
}
