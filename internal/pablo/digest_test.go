package pablo

import (
	"hash/fnv"
	"testing"
	"time"
)

// referenceDigest re-walks a trace with hash/fnv exactly the way the
// original Digest implementation did — the incremental path must match
// it byte for byte or every pinned golden digest would move.
func referenceDigest(events []Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, ev := range events {
		u64(uint64(ev.Node))
		u64(uint64(ev.Op))
		h.Write([]byte(ev.File))
		u64(uint64(ev.Offset))
		u64(uint64(ev.Size))
		u64(uint64(ev.Start))
		u64(uint64(ev.Duration))
		h.Write([]byte(ev.Mode))
	}
	return h.Sum64()
}

func sampleEvents() []Event {
	return []Event{
		{Node: 0, Op: OpOpen, File: "input", Start: time.Millisecond, Duration: 40 * time.Microsecond, Mode: "M_UNIX"},
		{Node: 3, Op: OpRead, File: "input", Offset: 4096, Size: 65536, Start: 2 * time.Millisecond, Duration: 12 * time.Millisecond, Mode: "M_UNIX"},
		{Node: 3, Op: OpSeek, File: "input", Offset: 1 << 20, Start: 15 * time.Millisecond, Duration: 30 * time.Microsecond, Mode: "M_RECORD"},
		{Node: 7, Op: OpWrite, File: "out.chk", Offset: -8, Size: 1 << 17, Start: 20 * time.Millisecond, Duration: 9 * time.Millisecond},
		{Node: 511, Op: OpClose, File: "out.chk", Start: time.Second, Duration: time.Microsecond, Mode: "M_ASYNC"},
	}
}

// TestDigestMatchesReference checks the incremental digest reproduces the
// original full-rewalk FNV-1a stream, including the empty trace.
func TestDigestMatchesReference(t *testing.T) {
	tr := NewTrace()
	if got, want := tr.Digest(), referenceDigest(nil); got != want {
		t.Fatalf("empty: %#x, reference %#x", got, want)
	}
	for i, ev := range sampleEvents() {
		tr.Record(ev)
		if got, want := tr.Digest(), referenceDigest(tr.Events()); got != want {
			t.Fatalf("after %d events: %#x, reference %#x", i+1, got, want)
		}
	}
}

// TestDigestAfterFilter checks traces built by direct appends (Filter)
// still digest correctly via the lazy catch-up.
func TestDigestAfterFilter(t *testing.T) {
	tr := NewTrace()
	for _, ev := range sampleEvents() {
		tr.Record(ev)
	}
	sub := tr.Filter(func(ev Event) bool { return ev.Op == OpRead || ev.Op == OpWrite })
	if sub.Len() != 2 {
		t.Fatalf("filtered %d events, want 2", sub.Len())
	}
	if got, want := sub.Digest(), referenceDigest(sub.Events()); got != want {
		t.Fatalf("filtered digest %#x, reference %#x", got, want)
	}
	// Digesting the subset must not disturb the parent.
	if got, want := tr.Digest(), referenceDigest(tr.Events()); got != want {
		t.Fatalf("parent digest %#x, reference %#x", got, want)
	}
}
