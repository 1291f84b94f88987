package pablo

// FNV-1a 64-bit parameters (the stream layout below predates this file:
// golden digests are pinned against it, so it must never change shape).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// digestState is a resumable FNV-1a hash over an event stream. Keeping
// the running state as a plain integer (rather than a hash.Hash64) makes
// it allocation-free and lets a Tally carry it across records.
type digestState uint64

func (h *digestState) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	*h = digestState(x)
}

func (h *digestState) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 64; i += 8 {
		x ^= uint64(byte(v >> i))
		x *= fnvPrime64
	}
	*h = digestState(x)
}

// event folds one event into the hash: every field, little-endian, in
// the pinned golden order. The stream's shape is fixed by the golden
// digests, not by Event's layout: Node folds as 8 bytes (the int32
// sign-extends) and Mode as its name ("" for NoMode).
func (h *digestState) event(ev *Event) {
	h.u64(uint64(ev.Node))
	h.u64(uint64(ev.Op))
	h.str(ev.File)
	h.u64(uint64(ev.Offset))
	h.u64(uint64(ev.Size))
	h.u64(uint64(ev.Start))
	h.u64(uint64(ev.Duration))
	h.str(ev.Mode.String())
}

// Digest returns the FNV-1a digest of the full event stream: every field
// of every event, in capture order, folded with the same digestState.event
// a Tally uses, so a trace and a tally of one run agree. Two runs of a
// deterministic workload must produce identical digests; the
// golden-digest regression tests use this as the gate that licenses
// simulation-kernel optimizations. Digest walks the trace on each call.
func (t *Trace) Digest() uint64 {
	h := digestState(fnvOffset64)
	for i := range t.events {
		h.event(&t.events[i])
	}
	return uint64(h)
}
