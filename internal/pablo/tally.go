package pablo

import "time"

// Tally is a folding recorder: a Tracer that keeps no events, only the
// run-level totals a Trace would yield — the event count, the summed
// duration (TotalIOTime), the stream digest, and each file's operation
// stats as FileLifetimes reports them. It is Pablo's statistical summary
// taken as the run executes instead of after it, the always-on counter
// design of Darshan. The digest is folded with the same digestState.event
// as a Trace's, so a Tally and a Trace fed the same events agree on every
// total by construction.
//
// The zero value is an empty tally. Like Trace, a Tally is not safe for
// concurrent use.
type Tally struct {
	n     int
	io    time.Duration
	dig   digestState
	files map[string]*OpStats
}

// Record implements Tracer.
func (t *Tally) Record(ev Event) {
	if t.n == 0 {
		t.dig = digestState(fnvOffset64)
	}
	t.n++
	t.io += ev.Duration
	t.dig.event(&ev)
	if ev.File == "" {
		return
	}
	st := t.files[ev.File]
	if st == nil {
		if t.files == nil {
			t.files = make(map[string]*OpStats)
		}
		st = new(OpStats)
		t.files[ev.File] = st
	}
	st.Add(ev)
}

// Len returns the number of recorded events (Trace.Len).
func (t *Tally) Len() int { return t.n }

// TotalIOTime returns the summed duration of every recorded event,
// including those with no file (Trace.TotalIOTime).
func (t *Tally) TotalIOTime() time.Duration { return t.io }

// Digest returns the FNV-1a digest of the recorded stream (Trace.Digest).
func (t *Tally) Digest() uint64 {
	if t.n == 0 {
		return fnvOffset64
	}
	return uint64(t.dig)
}

// Files returns each named file's operation stats, the OpStats of its
// FileLifetimes entry. The map is new; events with no file are in no
// entry.
func (t *Tally) Files() map[string]OpStats {
	out := make(map[string]OpStats, len(t.files))
	for name, st := range t.files {
		out[name] = *st
	}
	return out
}
