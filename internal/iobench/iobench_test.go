package iobench

import (
	"strings"
	"testing"

	"paragonio/internal/pfs"
)

// small returns fast parameters exercising all paths.
func small(k Kernel, mode pfs.Mode) Params {
	return Params{
		Kernel:  k,
		Mode:    mode,
		Nodes:   8,
		Request: 64 << 10,
		Volume:  4 << 20,
		Cycles:  4,
	}
}

func TestKernelNames(t *testing.T) {
	if len(Kernels()) != 5 {
		t.Fatalf("kernels = %d", len(Kernels()))
	}
	for _, k := range Kernels() {
		if strings.Contains(k.String(), "kernel(") {
			t.Fatalf("kernel %d has no name", int(k))
		}
	}
	if Kernel(99).String() != "kernel(99)" {
		t.Fatal("out-of-range name")
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{Kernel: Kernel(99), Mode: pfs.MAsync, Nodes: 4, Request: 1, Volume: 1},
		{Kernel: StagingWrite, Mode: pfs.MAsync, Nodes: 0, Request: 1, Volume: 1},
		{Kernel: StagingWrite, Mode: pfs.MAsync, Nodes: 4, Request: 0, Volume: 1},
		{Kernel: StagingWrite, Mode: pfs.MAsync, Nodes: 4, Request: 1, Volume: 0},
		{Kernel: Checkpoint, Mode: pfs.MRecord, Nodes: 4, Request: 1, Volume: 1},
		{Kernel: ResultFunnel, Mode: pfs.MGlobal, Nodes: 4, Request: 1, Volume: 1},
	}
	for i, p := range bad {
		if _, err := Run(p); err == nil {
			t.Fatalf("case %d: bad params accepted", i)
		}
	}
}

func TestEveryKernelEveryModeRuns(t *testing.T) {
	for _, k := range Kernels() {
		for _, mode := range ModesFor(k) {
			r, err := Run(small(k, mode))
			if err != nil {
				t.Fatalf("%s/%s: %v", k, mode, err)
			}
			if r.Ops == 0 || r.Bytes == 0 {
				t.Fatalf("%s/%s: no data moved (%+v)", k, mode, r)
			}
			if r.Wall <= 0 || r.IOTime <= 0 {
				t.Fatalf("%s/%s: no time elapsed", k, mode)
			}
			if r.BandwidthMBs() <= 0 || r.MeanOpMillis() <= 0 {
				t.Fatalf("%s/%s: degenerate derived metrics", k, mode)
			}
		}
	}
}

func TestVolumeConservation(t *testing.T) {
	// Per-process-pointer staging/reload kernels move exactly Volume
	// bytes (rounded to whole requests per node).
	for _, k := range []Kernel{StagingWrite, StridedReload} {
		p := small(k, pfs.MAsync)
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if k == StridedReload {
			if r.Bytes != p.Volume {
				t.Fatalf("%s moved %d bytes, want %d", k, r.Bytes, p.Volume)
			}
		} else if r.Bytes < p.Volume/2 || r.Bytes > p.Volume {
			t.Fatalf("%s moved %d bytes, want ~%d", k, r.Bytes, p.Volume)
		}
	}
}

func TestCompulsoryReadGlobalBeatsUnix(t *testing.T) {
	// The benchmark reproduces the paper's core lesson: for identical
	// compulsory reads, M_GLOBAL (one disk I/O + broadcast) beats
	// M_UNIX (token-serialized per-node reads) by a wide margin.
	unix, err := Run(small(CompulsoryRead, pfs.MUnix))
	if err != nil {
		t.Fatal(err)
	}
	global, err := Run(small(CompulsoryRead, pfs.MGlobal))
	if err != nil {
		t.Fatal(err)
	}
	if global.Wall*3 >= unix.Wall {
		t.Fatalf("M_GLOBAL (%v) not >> M_UNIX (%v)", global.Wall, unix.Wall)
	}
}

func TestStagingAsyncBeatsUnix(t *testing.T) {
	unix, err := Run(small(StagingWrite, pfs.MUnix))
	if err != nil {
		t.Fatal(err)
	}
	async, err := Run(small(StagingWrite, pfs.MAsync))
	if err != nil {
		t.Fatal(err)
	}
	if async.Wall >= unix.Wall {
		t.Fatalf("M_ASYNC staging (%v) not faster than M_UNIX (%v)", async.Wall, unix.Wall)
	}
}

func TestReloadRecordNearAsync(t *testing.T) {
	// M_RECORD should be within ~2x of M_ASYNC for stripe-aligned
	// strided reloads (it adds only synchronization).
	rec, err := Run(small(StridedReload, pfs.MRecord))
	if err != nil {
		t.Fatal(err)
	}
	async, err := Run(small(StridedReload, pfs.MAsync))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Wall > async.Wall*3 {
		t.Fatalf("M_RECORD reload (%v) too far above M_ASYNC (%v)", rec.Wall, async.Wall)
	}
}

// sweep runs the registered sweep id on base.
func sweep(t *testing.T, id string, base Params) []*Result {
	t.Helper()
	sw, ok := LookupSweep(id)
	if !ok {
		t.Fatalf("sweep %q not registered", id)
	}
	rs, err := sw.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSweepModes(t *testing.T) {
	rs := sweep(t, "modes", small(StridedReload, 0))
	if len(rs) != 6 {
		t.Fatalf("sweep returned %d results", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if r.Label != r.Params.Mode.String() {
			t.Errorf("rung %q ran mode %s", r.Label, r.Params.Mode)
		}
		seen[r.Label] = true
	}
	if !seen["M_RECORD"] || !seen["M_LOG"] {
		t.Fatalf("modes covered: %v", seen)
	}
}

// TestSweepRegistry pins the registry: the ids in the order the CLI lists
// them, a rung ladder (or the advisor's own runner) and a config column
// for each, and distinct rung labels within every ladder.
func TestSweepRegistry(t *testing.T) {
	want := "modes request ionodes cache clientcache advisor flush faults logtier"
	if got := strings.Join(SweepIDs(), " "); got != want {
		t.Fatalf("sweep ids %q, want %q", got, want)
	}
	for _, sw := range sweeps {
		if (sw.Rungs == nil) == (sw.run == nil) {
			t.Errorf("%s: want exactly one of a rung ladder and a runner", sw.ID)
		}
		if len(sw.Columns) == 0 || sw.Columns[0].Head != "config" {
			t.Errorf("%s: first column is not the rung label", sw.ID)
		}
		if sw.Rungs == nil {
			continue
		}
		seen := map[string]bool{}
		for _, r := range sw.Rungs(small(StridedReload, pfs.MAsync)) {
			if seen[r.Label] {
				t.Errorf("%s: duplicate rung %q", sw.ID, r.Label)
			}
			seen[r.Label] = true
		}
	}
}

// TestLadderReportsFirstFailingRung pins the runner's error rule: every
// rung runs, and the first failure in rung order is reported with the
// kernel, the sweep id and the rung label.
func TestLadderReportsFirstFailingRung(t *testing.T) {
	bad := func(label string) Rung { return Rung{label, func(p *Params) { p.Nodes = 0 }} }
	good := Rung{"ok", func(*Params) {}}
	_, err := runLadder(small(StridedReload, pfs.MAsync), "test", []Rung{good, bad("first"), good, bad("second")})
	if err == nil {
		t.Fatal("failing rung accepted")
	}
	if want := "strided-reload test=first: iobench: Nodes = 0"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestFindRungs(t *testing.T) {
	rs := sweep(t, "cache", small(Checkpoint, pfs.MAsync))
	got, err := FindRungs(rs, "wb+read-ahead", "no-cache")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != rs[2] || got[1] != rs[0] {
		t.Fatalf("FindRungs returned %q, %q", got[0].Label, got[1].Label)
	}
	if _, err := FindRungs(rs, "no-cache", "nosuch"); err == nil {
		t.Fatal("missing rung found")
	}
}

func TestSweepRequestSizesMonotoneBandwidth(t *testing.T) {
	base := small(StridedReload, pfs.MAsync)
	rs, err := runLadder(base, "request", requestRungs(4<<10, 64<<10, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	// Bigger stripe-aligned requests must not reduce bandwidth.
	for i := 1; i < len(rs); i++ {
		if rs[i].BandwidthMBs() < rs[i-1].BandwidthMBs() {
			t.Fatalf("bandwidth fell from %.1f to %.1f MB/s as request grew",
				rs[i-1].BandwidthMBs(), rs[i].BandwidthMBs())
		}
	}
}

func TestSweepIONodesImproves(t *testing.T) {
	base := small(StridedReload, pfs.MAsync)
	rs, err := runLadder(base, "ionodes", ioNodeRungs(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Wall >= rs[0].Wall {
		t.Fatalf("16 I/O nodes (%v) not faster than 2 (%v)", rs[1].Wall, rs[0].Wall)
	}
}

func TestWriteTable(t *testing.T) {
	rs := sweep(t, "modes", small(StridedReload, 0))
	var b strings.Builder
	if err := WriteTable(&b, "reload", rs, standardCols); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "M_ASYNC") || !strings.Contains(out, "MB/s") {
		t.Fatalf("table missing content:\n%s", out)
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := Run(small(StagingWrite, pfs.MUnix))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(StagingWrite, pfs.MUnix))
	if err != nil {
		t.Fatal(err)
	}
	if a.Wall != b.Wall || a.Ops != b.Ops || a.IOTime != b.IOTime {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
