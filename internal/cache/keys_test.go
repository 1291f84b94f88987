package cache

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"paragonio/internal/sim"
)

// runPanicking runs body as a process and returns the panic the kernel
// contained, failing the test if there was none.
func runPanicking(t *testing.T, k *sim.Kernel, body func()) *sim.PanicError {
	t.Helper()
	k.Spawn("driver", func(*sim.Proc) { body() })
	var pe *sim.PanicError
	if err := k.Run(); !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want a *sim.PanicError", err)
	}
	return pe
}

func TestPackedKeyRoundTrip(t *testing.T) {
	for _, c := range []struct {
		stream int32
		idx    int64
	}{{0, 0}, {1, 7}, {maxStreams - 1, maxBlockIdx}, {12345, 1 << 39}} {
		k := packBlock(c.stream, c.idx)
		if k.stream() != c.stream || k.idx() != c.idx {
			t.Errorf("packBlock(%d, %d) unpacks to (%d, %d)", c.stream, c.idx, k.stream(), k.idx())
		}
	}
}

// TestBlockIndexBoundPanics: the last addressable block works on both
// tiers; one past it, or a negative offset, panics with a clear message
// instead of aliasing another stream's block.
func TestBlockIndexBoundPanics(t *testing.T) {
	const bs = clientBlockSize
	k, ct := newClientRig(t, ClientConfig{})
	k.Spawn("edge", func(*sim.Proc) {
		ct.Install(0, 0, maxBlockIdx*bs, bs)
		if _, hit := ct.Read(0, 0, maxBlockIdx*bs, bs); !hit {
			t.Error("last addressable block missed after install")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func(*ClientTier){
		"read past bound":  func(ct *ClientTier) { ct.Read(0, 0, (maxBlockIdx+1)*bs, 1) },
		"write past bound": func(ct *ClientTier) { ct.Write(0, 0, maxBlockIdx*bs, 2*bs) },
		"install negative": func(ct *ClientTier) { ct.Install(0, 0, -bs, bs) },
	} {
		k, ct := newClientRig(t, ClientConfig{})
		pe := runPanicking(t, k, func() { op(ct) })
		if !strings.Contains(pe.Error(), "packed key's range") {
			t.Errorf("client %s: panic %q does not name the key range", name, pe.Error())
		}
	}
	r := newRig(t, nil)
	pe := runPanicking(t, r.k, func() { r.c.Access(0, (maxBlockIdx+1)*testBlock, 1, false) })
	if !strings.Contains(pe.Error(), "packed key's range") {
		t.Errorf("I/O-node access past bound: panic %q does not name the key range", pe.Error())
	}
}

// TestStreamBoundPanics: a stream id past the key's 2^24 range, or a
// negative one, panics on both tiers with the key-range message instead
// of aliasing another stream's blocks; the last id in range works.
func TestStreamBoundPanics(t *testing.T) {
	for name, op := range map[string]func(*ClientTier){
		"read past bound":  func(ct *ClientTier) { ct.Read(0, maxStreams, 0, 1) },
		"write past bound": func(ct *ClientTier) { ct.Write(0, maxStreams, 0, 1) },
		"install negative": func(ct *ClientTier) { ct.Install(0, -1, 0, 1) },
	} {
		k, ct := newClientRig(t, ClientConfig{})
		pe := runPanicking(t, k, func() { op(ct) })
		if !strings.Contains(pe.Error(), "packed key's range") {
			t.Errorf("client %s: panic %q does not name the key range", name, pe.Error())
		}
	}

	r := newRig(t, nil)
	r.do(t, func(_ *sim.Proc, access func(int32, int64, int64, bool)) {
		access(maxStreams-1, 0, 4096, false)
		access(maxStreams-1, 0, 4096, false)
	})
	if s := r.c.Stats(); s.Hits != 1 {
		t.Errorf("last stream id: stats %+v, want the re-read to hit", s)
	}
	for _, sid := range []int32{maxStreams, -1} {
		r := newRig(t, nil)
		pe := runPanicking(t, r.k, func() { r.c.Access(sid, 0, 1, false) })
		if !strings.Contains(pe.Error(), "packed key's range") {
			t.Errorf("I/O-node access to stream %d: panic %q does not name the key range", sid, pe.Error())
		}
	}
}

// TestSparseOffsetAllocatesOnePage: the first access to a new stream at
// a far offset allocates one directory page plus small bookkeeping, not
// a directory as long as the offset. TotalAlloc is process-wide, so an
// allocation elsewhere can land between the two readings; each offset is
// measured over several fresh streams, after a GC, and the fewest bytes
// any install took must fit the bound.
func TestSparseOffsetAllocatesOnePage(t *testing.T) {
	const bs, trials = clientBlockSize, 5
	_, ct := newClientRig(t, ClientConfig{})
	ct.Install(0, 0, 0, bs) // node 0 and the tables exist
	page := uint64(unsafe.Sizeof(clientDirPage{}))
	stream := int32(0)
	for _, idx := range []int64{1 << 20, 1 << 39} {
		least := uint64(math.MaxUint64)
		for trial := 0; trial < trials; trial++ {
			stream++
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ct.Install(0, stream, idx*bs, bs)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			if d := ct.dirs[stream]; len(d.pages) != 1 {
				t.Errorf("block %d: %d directory pages, want 1", idx, len(d.pages))
			}
		}
		if least < page || least >= 2*page {
			t.Errorf("install at block %d allocated at least %d bytes over %d trials, want one %d-byte page plus bookkeeping",
				idx, least, trials, page)
		}
	}
}
