package pfs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

func TestNewGroupValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.fs.NewGroup(nil); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := r.fs.NewGroup([]int{1, 2, 1}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	g, err := r.fs.NewGroup([]int{5, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("len(Nodes) = %d", len(nodes))
	}
	if nodes[0] != 3 || nodes[1] != 5 || nodes[2] != 9 {
		t.Fatalf("Nodes = %v, want sorted", nodes)
	}
	if g.rank[5] != 1 || g.rank[3] != 0 || g.rank[9] != 2 {
		t.Fatal("ranks wrong")
	}
	if _, ok := g.rank[42]; ok {
		t.Fatal("non-member has a rank")
	}
}

// spawnGroup runs body once per member node, as separate processes.
func spawnGroup(r *testRig, g *Group, body func(p *sim.Proc, node int)) {
	for _, node := range g.Nodes() {
		node := node
		r.k.Spawn("node", func(p *sim.Proc) { body(p, node) })
	}
}

func TestGopenPaysMetadataOnce(t *testing.T) {
	r := newRig(t)
	g, _ := r.fs.NewGroup([]int{0, 1, 2, 3})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, err := g.Gopen(p, node, "f", MGlobal)
		if err != nil {
			t.Error(err)
			return
		}
		if h.Mode() != MGlobal {
			t.Errorf("mode = %v", h.Mode())
		}
	})
	r.run(t)
	if got := r.fs.MetadataStats().Acquisitions; got != 1 {
		t.Fatalf("metadata ops = %d, want 1 (collective)", got)
	}
	if got := len(byOp(r.tr, pablo.OpGopen)); got != 4 {
		t.Fatalf("gopen events = %d, want 4 (one per node)", got)
	}
}

func TestGopenNonMemberRejected(t *testing.T) {
	r := newRig(t)
	g, _ := r.fs.NewGroup([]int{0, 1})
	var err error
	r.k.Spawn("outsider", func(p *sim.Proc) {
		_, err = g.Gopen(p, 7, "f", MGlobal)
	})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		g.Gopen(p, node, "f", MGlobal)
	})
	r.run(t)
	if err != ErrNotMember {
		t.Fatalf("outsider err = %v", err)
	}
}

func TestMGlobalSingleDiskIO(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("init", 1<<20)
	got := make([]int64, 8)
	g, _ := r.fs.NewGroup([]int{0, 1, 2, 3, 4, 5, 6, 7})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, _ := g.Gopen(p, node, "init", MGlobal)
		h.SetBuffering(false)
		n, err := h.Read(p, 4096)
		if err != nil {
			t.Error(err)
		}
		got[node] = n
	})
	r.run(t)
	for node, n := range got {
		if n != 4096 {
			t.Fatalf("node %d read %d", node, n)
		}
	}
	var reqs uint64
	for _, s := range r.fs.IONodeStats() {
		reqs += s.Requests
	}
	if reqs != 1 {
		t.Fatalf("disk requests = %d, want 1 (data read once)", reqs)
	}
	reads := byOp(r.tr, pablo.OpRead)
	if len(reads) != 8 {
		t.Fatalf("read events = %d, want 8", len(reads))
	}
	for _, ev := range reads {
		if ev.Offset != 0 || ev.Size != 4096 || ev.Mode != pablo.ModeGlobal {
			t.Fatalf("bad global read event %+v", ev)
		}
	}
}

func TestMGlobalSharedPointerAdvancesOnce(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("init", 1<<20)
	offsets := make(map[int64]bool)
	g, _ := r.fs.NewGroup([]int{0, 1, 2})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, _ := g.Gopen(p, node, "init", MGlobal)
		for i := 0; i < 3; i++ {
			h.Read(p, 100)
		}
	})
	r.run(t)
	for _, ev := range byOp(r.tr, pablo.OpRead) {
		offsets[ev.Offset] = true
	}
	// Three rounds: offsets 0, 100, 200 — each seen by all nodes.
	if len(offsets) != 3 || !offsets[0] || !offsets[100] || !offsets[200] {
		t.Fatalf("global read offsets = %v", offsets)
	}
}

func TestMGlobalSizeMismatchRejected(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("init", 1<<20)
	errs := make(map[int]error)
	g, _ := r.fs.NewGroup([]int{0, 1})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, _ := g.Gopen(p, node, "init", MGlobal)
		_, err := h.Read(p, int64(100+node)) // sizes differ
		errs[node] = err
	})
	r.run(t)
	for node, err := range errs {
		if err != ErrCollectiveMismatch {
			t.Fatalf("node %d err = %v", node, err)
		}
	}
}

func TestMRecordDisjointNodeOrder(t *testing.T) {
	r := newRig(t)
	const rec = 65536
	r.fs.CreateFile("quad", int64(rec)*8)
	g, _ := r.fs.NewGroup([]int{0, 1, 2, 3})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, _ := g.Gopen(p, node, "quad", MRecord)
		h.SetBuffering(false)
		for round := 0; round < 2; round++ {
			n, err := h.Read(p, rec)
			if err != nil {
				t.Error(err)
			}
			if n != rec {
				t.Errorf("node %d round %d read %d", node, round, n)
			}
		}
	})
	r.run(t)
	// Offsets must tile the file: node i round k at (k*4+i)*rec.
	seen := make(map[int64]int)
	for _, ev := range byOp(r.tr, pablo.OpRead) {
		seen[ev.Offset]++
		if ev.Offset%rec != 0 {
			t.Fatalf("unaligned record offset %d", ev.Offset)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("distinct record offsets = %d, want 8", len(seen))
	}
	for off, count := range seen {
		if count != 1 {
			t.Fatalf("offset %d accessed %d times", off, count)
		}
	}
}

// TestMRecordSizeMismatchRejected runs a good first M_RECORD round,
// then a second in which one member changes its size (the members
// disagree) or all do (they agree on a size that is not the file's
// record size): every member gets the matching error.
func TestMRecordSizeMismatchRejected(t *testing.T) {
	cases := []struct {
		name   string
		second func(node int) int64
		want   error
	}{
		{"one member changes size", func(node int) int64 { return int64(1024 * (node + 1)) }, ErrCollectiveMismatch},
		{"all members change size", func(int) int64 { return 2048 }, ErrRecordSize},
	}
	for _, c := range cases {
		r := newRig(t)
		r.fs.CreateFile("quad", 1<<20)
		errs := make(map[int]error)
		g, _ := r.fs.NewGroup([]int{0, 1})
		spawnGroup(r, g, func(p *sim.Proc, node int) {
			h, _ := g.Gopen(p, node, "quad", MRecord)
			if _, err := h.Read(p, 1024); err != nil {
				t.Error(err)
			}
			_, err := h.Read(p, c.second(node))
			errs[node] = err
		})
		r.run(t)
		for node := 0; node < 2; node++ {
			if errs[node] != c.want {
				t.Errorf("%s: node %d err = %v, want %v", c.name, node, errs[node], c.want)
			}
		}
	}
}

// TestGroupRoundOutcomes pins M_RECORD and M_GLOBAL reads and writes
// over three rounds of a three-member group, in the middle one of which
// member 2 asks for twice the size. Members arrive in a different order
// each round. For each member it pins the count, error and return time
// of every round, and for the run the kernel's event count and an
// FNV-1a hash of its (at, seq) dispatch stream.
func TestGroupRoundOutcomes(t *testing.T) {
	const mismatch = "0 pfs: collective operation parameters differ across nodes"
	cases := []struct {
		mode   Mode
		write  bool
		events uint64
		hash   uint64
		want   [3]string
	}{
		{MRecord, false, 65, 0x845ec039358e64a9, [3]string{
			"4096 <nil> @139.03304ms; " + mismatch + " @139.13304ms; 4096 <nil> @139.66328ms;",
			"4096 <nil> @112.82944ms; " + mismatch + " @139.13304ms; 4096 <nil> @139.66328ms;",
			"4096 <nil> @101.51464ms; " + mismatch + " @139.13304ms; 4096 <nil> @139.66328ms;",
		}},
		{MRecord, true, 66, 0xed2ab1644eeaeef, [3]string{
			"4096 <nil> @121.0004ms; " + mismatch + " @121.1004ms; 4096 <nil> @181.9744ms;",
			"4096 <nil> @100.9408ms; " + mismatch + " @121.1004ms; 4096 <nil> @161.9148ms;",
			"4096 <nil> @80.8812ms; " + mismatch + " @121.1004ms; 4096 <nil> @141.8552ms;",
		}},
		{MGlobal, false, 44, 0x73375021fa734411, [3]string{
			"4096 <nil> @88.05984ms; " + mismatch + " @88.25984ms; 4096 <nil> @88.89248ms;",
			"4096 <nil> @88.05984ms; " + mismatch + " @88.25984ms; 4096 <nil> @88.89248ms;",
			"4096 <nil> @88.05984ms; " + mismatch + " @88.25984ms; 4096 <nil> @88.89248ms;",
		}},
		{MGlobal, true, 46, 0x9b47a27e7af09550, [3]string{
			"4096 <nil> @80.8816ms; " + mismatch + " @81.0816ms; 4096 <nil> @83.6868ms;",
			"4096 <nil> @80.8816ms; " + mismatch + " @81.0816ms; 4096 <nil> @83.6868ms;",
			"4096 <nil> @80.8816ms; " + mismatch + " @81.0816ms; 4096 <nil> @83.6868ms;",
		}},
	}
	for _, c := range cases {
		r := newRig(t)
		r.fs.CreateFile("f", 1<<20)
		hash := fnv.New64a()
		var buf [16]byte
		r.k.SetObserver(func(at sim.Time, seq uint64) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(at))
			binary.LittleEndian.PutUint64(buf[8:], seq)
			hash.Write(buf[:])
		})
		g, _ := r.fs.NewGroup([]int{0, 1, 2})
		var got [3]string
		spawnGroup(r, g, func(p *sim.Proc, node int) {
			h, err := g.Gopen(p, node, "f", c.mode)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				p.Wait(time.Duration((node+round)%3) * 100 * time.Microsecond)
				size := int64(4096)
				if round == 1 && node == 2 {
					size = 8192
				}
				var n int64
				if c.write {
					n, err = h.Write(p, size)
				} else {
					n, err = h.Read(p, size)
				}
				got[node] += fmt.Sprintf("%d %v @%v; ", n, err, p.Now())
			}
		})
		r.run(t)
		name := fmt.Sprintf("%v write=%v", c.mode, c.write)
		for node := range got {
			if line := strings.TrimSpace(got[node]); line != c.want[node] {
				t.Errorf("%s: node %d:\n got %s\nwant %s", name, node, line, c.want[node])
			}
		}
		if e := r.k.EventsProcessed(); e != c.events {
			t.Errorf("%s: %d events, want %d", name, e, c.events)
		}
		if h := hash.Sum64(); h != c.hash {
			t.Errorf("%s: dispatch hash %#x, want %#x", name, h, c.hash)
		}
	}
}

func TestMRecordWriteExtendsFile(t *testing.T) {
	r := newRig(t)
	const rec = 4096
	g, _ := r.fs.NewGroup([]int{0, 1, 2, 3})
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, _ := g.Gopen(p, node, "out", MRecord)
		for round := 0; round < 3; round++ {
			if _, err := h.Write(p, rec); err != nil {
				t.Error(err)
			}
		}
	})
	r.run(t)
	if got := r.fs.FileSize("out"); got != rec*12 {
		t.Fatalf("file size = %d, want %d", got, rec*12)
	}
}

func TestMSyncVariableSizesPrefixOffsets(t *testing.T) {
	r := newRig(t)
	g, _ := r.fs.NewGroup([]int{0, 1, 2})
	sizes := []int64{100, 250, 50}
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, _ := g.Gopen(p, node, "out", MSync)
		if _, err := h.Write(p, sizes[node]); err != nil {
			t.Error(err)
		}
		if _, err := h.Write(p, sizes[node]); err != nil {
			t.Error(err)
		}
	})
	r.run(t)
	writes := byOp(r.tr, pablo.OpWrite)
	if len(writes) != 6 {
		t.Fatalf("write events = %d", len(writes))
	}
	offByNodeRound := map[[2]int]int64{}
	roundOf := map[int]int{}
	for _, ev := range writes {
		node := int(ev.Node)
		offByNodeRound[[2]int{node, roundOf[node]}] = ev.Offset
		roundOf[node]++
	}
	// Round 0: offsets 0, 100, 350; round 1: 400, 500, 750.
	want := map[[2]int]int64{
		{0, 0}: 0, {1, 0}: 100, {2, 0}: 350,
		{0, 1}: 400, {1, 1}: 500, {2, 1}: 750,
	}
	for k, w := range want {
		if offByNodeRound[k] != w {
			t.Fatalf("node %d round %d offset = %d, want %d (all: %v)",
				k[0], k[1], offByNodeRound[k], w, offByNodeRound)
		}
	}
	if got := r.fs.FileSize("out"); got != 800 {
		t.Fatalf("file size = %d, want 800", got)
	}
}

func TestCollectiveSetIOModeBindsGroup(t *testing.T) {
	// The PRISM version B pattern: plain open by all nodes, then a
	// collective setiomode to M_GLOBAL.
	r := newRig(t)
	r.fs.CreateFile("params", 1<<20)
	g, _ := r.fs.NewGroup([]int{0, 1, 2, 3})
	reads := make([]int64, 4)
	spawnGroup(r, g, func(p *sim.Proc, node int) {
		h, err := r.fs.Open(p, node, "params", MUnix)
		if err != nil {
			t.Error(err)
			return
		}
		if err := g.SetIOMode(p, h, MGlobal); err != nil {
			t.Error(err)
			return
		}
		n, err := h.Read(p, 512)
		if err != nil {
			t.Error(err)
		}
		reads[node] = n
	})
	r.run(t)
	for node, n := range reads {
		if n != 512 {
			t.Fatalf("node %d read %d after collective iomode", node, n)
		}
	}
	if got := len(byOp(r.tr, pablo.OpIOMode)); got != 4 {
		t.Fatalf("iomode events = %d, want 4", got)
	}
	// open x4 + one leader-paid setiomode = 5 metadata ops.
	if got := r.fs.MetadataStats().Acquisitions; got != 5 {
		t.Fatalf("metadata ops = %d, want 5", got)
	}
}

func TestGopenDurationIncludesSkew(t *testing.T) {
	// A straggler arriving 1s late must inflate everyone's gopen
	// duration — collective operations charge synchronization time,
	// which is how gopen/iomode become visible in the optimized tables.
	r := newRig(t)
	g, _ := r.fs.NewGroup([]int{0, 1})
	for _, node := range g.Nodes() {
		node := node
		r.k.Spawn("node", func(p *sim.Proc) {
			if node == 1 {
				p.Wait(1e9) // 1 s straggler
			}
			g.Gopen(p, node, "f", MGlobal)
		})
	}
	r.run(t)
	for _, ev := range byOp(r.tr, pablo.OpGopen) {
		if ev.Node == 0 && ev.Duration < 1e9 {
			t.Fatalf("node 0 gopen duration %v does not include skew", ev.Duration)
		}
	}
}
