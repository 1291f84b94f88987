package pfs

import (
	"testing"

	"paragonio/internal/mesh"
	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// testRig bundles a kernel, file system and trace for mode tests. It uses
// a small fast mesh so tests run instantly but all cost paths execute.
type testRig struct {
	k  *sim.Kernel
	fs *FileSystem
	tr *pablo.Trace
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	k := sim.NewKernel()
	m := testMesh(t)
	tr := pablo.NewTrace()
	fs, err := New(k, DefaultConfig(m), tr)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{k: k, fs: fs, tr: tr}
}

// run drives the kernel and fails the test on deadlock.
func (r *testRig) run(t *testing.T) {
	t.Helper()
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestModeStringAndParse(t *testing.T) {
	for _, m := range []Mode{MUnix, MLog, MSync, MRecord, MGlobal, MAsync} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("M_NOPE"); err == nil {
		t.Fatal("ParseMode accepted junk")
	}
}

func TestModePredicates(t *testing.T) {
	if !MGlobal.SharedPointer() || !MSync.SharedPointer() || !MLog.SharedPointer() {
		t.Fatal("shared-pointer predicates wrong")
	}
	if MUnix.SharedPointer() || MRecord.SharedPointer() || MAsync.SharedPointer() {
		t.Fatal("per-process pointer modes misclassified")
	}
	if !MRecord.Collective() || !MGlobal.Collective() || !MSync.Collective() {
		t.Fatal("collective predicates wrong")
	}
	if MUnix.Collective() || MAsync.Collective() || MLog.Collective() {
		t.Fatal("non-collective modes misclassified")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	m := testMesh(t)
	bad := []func(*Config){
		func(c *Config) { c.IONodes = 0 },
		func(c *Config) { c.Mesh = nil },
		func(c *Config) { c.StripeUnit = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(m)
		mut(&cfg)
		if _, err := New(k, cfg, nil); err == nil {
			t.Fatalf("case %d: New accepted invalid config", i)
		}
	}
	cfg := DefaultConfig(m)
	cfg.StripeUnit = 0 // defaulted
	fs, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Config().StripeUnit != DefaultStripeUnit {
		t.Fatalf("StripeUnit defaulted to %d", fs.Config().StripeUnit)
	}
}

func TestCreateFileAndNamespace(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("input", 1<<20)
	r.fs.CreateFile("input", 100) // shrink attempt: no-op
	if r.fs.FileSize("input") != 1<<20 {
		t.Fatalf("FileSize = %d", r.fs.FileSize("input"))
	}
	if r.fs.FileSize("other") != 0 {
		t.Fatal("missing file size not 0")
	}
	r.fs.CreateFile("a", 1)
	if _, ok := r.fs.files["a"]; !ok || len(r.fs.files) != 2 {
		t.Fatalf("namespace holds %d files, want a and input", len(r.fs.files))
	}
}

func TestChunksByIONodeCoverAndAlign(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 10<<20)
	f := r.fs.lookup("f", false)
	u := r.fs.cfg.StripeUnit
	cases := []struct{ off, size int64 }{
		{0, 1},          // tiny at start
		{u - 1, 2},      // straddles one boundary
		{0, u},          // exactly one stripe
		{0, 2 * u},      // the paper's 128KB request
		{100, 155584},   // PRISM restart-body request
		{u / 2, 17 * u}, // spans the full I/O node cycle
	}
	for _, tc := range cases {
		lists, ios := splitChunks(r.fs, f, tc.off, tc.size)
		var total int64
		next := tc.off
		// Collect all chunks and verify they tile [off, off+size).
		all := map[int64]int64{}
		for _, io := range ios {
			if io < 0 || io >= r.fs.cfg.IONodes {
				t.Fatalf("chunk on invalid io node %d", io)
			}
			chunks := lists[io]
			for _, c := range chunks {
				if c.size <= 0 || c.size > u {
					t.Fatalf("chunk size %d out of range", c.size)
				}
				all[c.off] = c.size
				total += c.size
			}
		}
		if total != tc.size {
			t.Fatalf("off=%d size=%d: chunks cover %d bytes", tc.off, tc.size, total)
		}
		for next < tc.off+tc.size {
			sz, ok := all[next]
			if !ok {
				t.Fatalf("off=%d size=%d: gap at %d", tc.off, tc.size, next)
			}
			next += sz
		}
	}
}

func TestStripeMappingRoundRobin(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 64<<20)
	f := r.fs.lookup("f", false)
	u := r.fs.cfg.StripeUnit
	// 16 consecutive stripes must land on 16 distinct I/O nodes.
	seen := map[int]bool{}
	for s := int64(0); s < 16; s++ {
		_, ios := splitChunks(r.fs, f, s*u, 1)
		for _, io := range ios {
			seen[io] = true
		}
	}
	if len(seen) != 16 {
		t.Fatalf("16 stripes hit %d io nodes, want 16", len(seen))
	}
}

func TestOpenReadWriteCloseMUnix(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("in", 4096)
	var readN int64
	r.k.Spawn("app", func(p *sim.Proc) {
		h, err := r.fs.Open(p, 0, "in", MUnix)
		if err != nil {
			t.Error(err)
			return
		}
		n, err := h.Read(p, 1000)
		if err != nil {
			t.Error(err)
		}
		readN = n
		if _, err := h.Write(p, 500); err != nil {
			t.Error(err)
		}
		if err := h.Close(p); err != nil {
			t.Error(err)
		}
	})
	r.run(t)
	if readN != 1000 {
		t.Fatalf("read %d bytes", readN)
	}
	// Write happened at ptr=1000, so size stays 4096... 1000+500 < 4096.
	if r.fs.FileSize("in") != 4096 {
		t.Fatalf("size = %d", r.fs.FileSize("in"))
	}
	ops := map[pablo.Op]int{}
	for _, ev := range r.tr.Events() {
		ops[ev.Op]++
		if ev.Duration <= 0 {
			t.Fatalf("event %+v has non-positive duration", ev)
		}
		if ev.Mode != pablo.ModeUnix {
			t.Fatalf("event mode %q", ev.Mode)
		}
	}
	if ops[pablo.OpOpen] != 1 || ops[pablo.OpRead] != 1 || ops[pablo.OpWrite] != 1 || ops[pablo.OpClose] != 1 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestReadClampsAtEOF(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("in", 100)
	var ns []int64
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "in", MAsync)
		n1, _ := h.Read(p, 80)
		n2, _ := h.Read(p, 80) // only 20 left
		n3, _ := h.Read(p, 80) // EOF
		ns = []int64{n1, n2, n3}
		h.Close(p)
	})
	r.run(t)
	if ns[0] != 80 || ns[1] != 20 || ns[2] != 0 {
		t.Fatalf("reads = %v, want [80 20 0]", ns)
	}
}

func TestWriteExtendsFile(t *testing.T) {
	r := newRig(t)
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "new", MAsync)
		h.Seek(p, 1<<20)
		h.Write(p, 4096)
		h.Close(p)
	})
	r.run(t)
	if got := r.fs.FileSize("new"); got != 1<<20+4096 {
		t.Fatalf("size = %d", got)
	}
}

func TestHandleErrors(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 100)
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "f", MUnix)
		if _, err := h.Read(p, 0); err != ErrBadSize {
			t.Errorf("Read(0) err = %v", err)
		}
		if _, err := h.Write(p, -1); err != ErrBadSize {
			t.Errorf("Write(-1) err = %v", err)
		}
		if err := h.Seek(p, -1); err != ErrBadOffset {
			t.Errorf("Seek(-1) err = %v", err)
		}
		h.Close(p)
		if _, err := h.Read(p, 1); err != ErrClosed {
			t.Errorf("Read after close err = %v", err)
		}
		if err := h.Seek(p, 0); err != ErrClosed {
			t.Errorf("Seek after close err = %v", err)
		}
		if err := h.Close(p); err != ErrClosed {
			t.Errorf("double Close err = %v", err)
		}
		if err := h.Flush(p); err != ErrClosed {
			t.Errorf("Flush after close err = %v", err)
		}
		if _, err := r.fs.Open(p, 0, "f", Mode(99)); err == nil {
			t.Error("Open accepted invalid mode")
		}
	})
	r.run(t)
}

func TestCollectiveModeRequiresGroup(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<20)
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "f", MRecord)
		if _, err := h.Read(p, 65536); err != ErrNotCollective {
			t.Errorf("collective read without group err = %v", err)
		}
	})
	r.run(t)
}

func TestSharedPointerSeekRejected(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<20)
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "f", MLog)
		if err := h.Seek(p, 0); err != ErrSeekCollective {
			t.Errorf("M_LOG seek err = %v", err)
		}
	})
	r.run(t)
}

func TestMUnixConcurrentAccessSerializes(t *testing.T) {
	// Two nodes reading the same M_UNIX file must take roughly twice as
	// long as one, because atomicity serializes them; two nodes reading
	// two different files overlap.
	elapsed := func(files []string) sim.Time {
		k := sim.NewKernel()
		m := testMesh(t)
		fs, _ := New(k, DefaultConfig(m), nil)
		for _, f := range files {
			fs.CreateFile(f, 1<<20)
		}
		var last sim.Time
		bar := sim.NewBarrier(k, "openSync", 2)
		for i := 0; i < 2; i++ {
			i := i
			k.Spawn("n", func(p *sim.Proc) {
				h, _ := fs.Open(p, i, files[i%len(files)], MUnix)
				bar.Await(p) // start the read loops simultaneously
				t0 := p.Now()
				for j := 0; j < 20; j++ {
					h.Read(p, 65536)
				}
				if d := p.Now() - t0; d > last {
					last = d
				}
				h.Close(p)
			})
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
		return last
	}
	shared := elapsed([]string{"same", "same"})
	separate := elapsed([]string{"a", "b"})
	if shared < separate*3/2 {
		t.Fatalf("shared-file run (%v) not clearly slower than separate files (%v)", shared, separate)
	}
}

func TestMAsyncAvoidsSerialization(t *testing.T) {
	// M_ASYNC on a shared file avoids the token, so concurrent access to
	// *disjoint regions spread across io nodes* is much faster than M_UNIX.
	elapsed := func(mode Mode) sim.Time {
		k := sim.NewKernel()
		m := testMesh(t)
		fs, _ := New(k, DefaultConfig(m), nil)
		fs.CreateFile("f", 64<<20)
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("n", func(p *sim.Proc) {
				h, _ := fs.Open(p, i, "f", mode)
				h.Seek(p, int64(i)*8<<20)
				for j := 0; j < 10; j++ {
					h.Read(p, 65536)
				}
				h.Close(p)
			})
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
		return k.Now()
	}
	if a, u := elapsed(MAsync), elapsed(MUnix); a >= u {
		t.Fatalf("M_ASYNC (%v) not faster than M_UNIX (%v) under concurrency", a, u)
	}
}

func TestSeekCostsByMode(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<20)
	r.fs.CreateFile("g", 1<<20)
	var unixSeek, asyncSeek sim.Time
	r.k.Spawn("app", func(p *sim.Proc) {
		hu, _ := r.fs.Open(p, 0, "f", MUnix)
		t0 := p.Now()
		hu.Seek(p, 4096)
		unixSeek = p.Now() - t0
		ha, _ := r.fs.Open(p, 0, "g", MAsync)
		t0 = p.Now()
		ha.Seek(p, 4096)
		asyncSeek = p.Now() - t0
	})
	r.run(t)
	if unixSeek <= asyncSeek*10 {
		t.Fatalf("M_UNIX seek (%v) not >> M_ASYNC seek (%v)", unixSeek, asyncSeek)
	}
}

func TestLargeAlignedReadFasterPerByte(t *testing.T) {
	// The paper's core bandwidth observation: one 128KB (2-stripe) read
	// moves bytes far faster than 64 separate 2KB reads.
	elapsed := func(reqSize int64, count int) sim.Time {
		k := sim.NewKernel()
		m := testMesh(t)
		fs, _ := New(k, DefaultConfig(m), nil)
		fs.CreateFile("f", 128*1024)
		var loop sim.Time
		k.Spawn("n", func(p *sim.Proc) {
			h, _ := fs.Open(p, 0, "f", MUnix)
			h.SetBuffering(false)
			t0 := p.Now()
			for j := 0; j < count; j++ {
				h.Read(p, reqSize)
			}
			loop = p.Now() - t0
			h.Close(p)
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		return loop
	}
	small := elapsed(2048, 64)
	large := elapsed(131072, 1)
	if large*2 >= small {
		t.Fatalf("one 128KB read (%v) not much faster than 64x2KB (%v)", large, small)
	}
}

func TestIONodeStatsAndMetadataStats(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 2<<20)
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 0, "f", MAsync)
		h.SetBuffering(false)
		h.Read(p, 2<<20) // spans all 16 io nodes
		h.Close(p)
	})
	r.run(t)
	stats := r.fs.IONodeStats()
	if len(stats) != 16 {
		t.Fatalf("%d io node stats", len(stats))
	}
	var total int64
	for _, s := range stats {
		total += s.BytesMoved
		if s.Requests == 0 {
			t.Fatal("an io node saw no requests for a 2MB read")
		}
	}
	if total != 2<<20 {
		t.Fatalf("io nodes moved %d bytes, want %d", total, 2<<20)
	}
	if r.fs.MetadataStats().Acquisitions != 1 { // open only; close is async
		t.Fatalf("metadata acquisitions = %d", r.fs.MetadataStats().Acquisitions)
	}
}

func TestTraceOffsetsAndSizes(t *testing.T) {
	r := newRig(t)
	r.fs.CreateFile("f", 1<<20)
	r.k.Spawn("app", func(p *sim.Proc) {
		h, _ := r.fs.Open(p, 3, "f", MAsync)
		h.Read(p, 100)
		h.Read(p, 200)
		h.Seek(p, 5000)
		h.Write(p, 300)
		h.Close(p)
	})
	r.run(t)
	reads := byOp(r.tr, pablo.OpRead)
	if len(reads) != 2 || reads[0].Offset != 0 || reads[1].Offset != 100 {
		t.Fatalf("read offsets: %+v", reads)
	}
	seeks := byOp(r.tr, pablo.OpSeek)
	if len(seeks) != 1 || seeks[0].Offset != 5000 {
		t.Fatalf("seek events: %+v", seeks)
	}
	writes := byOp(r.tr, pablo.OpWrite)
	if len(writes) != 1 || writes[0].Offset != 5000 || writes[0].Size != 300 {
		t.Fatalf("write events: %+v", writes)
	}
	for _, ev := range r.tr.Events() {
		if ev.Node != 3 {
			t.Fatalf("event node = %d", ev.Node)
		}
	}
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

// byOp returns the events of one operation type, in capture order.
func byOp(tr *pablo.Trace, op pablo.Op) []pablo.Event {
	return tr.Filter(func(ev pablo.Event) bool { return ev.Op == op }).Events()
}
