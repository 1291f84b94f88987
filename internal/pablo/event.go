// Package pablo reimplements the capture side of the Pablo performance
// analysis environment as used in the paper: detailed per-operation I/O
// event traces plus the three statistical summary forms the paper names
// (file lifetime, time window, and file region summaries), and a portable
// self-describing text codec for offline analysis.
//
// The simulated file system records one Event per I/O operation to a
// Tracer. A Trace keeps every event, and the analysis layer consumes
// traces to regenerate the paper's tables and figures. A Tally keeps
// none: it folds each event into the run-level totals as it is recorded
// (count, summed duration, digest, per-file operation stats), for runs
// that are only ever read through those totals. WriteTrace/ReadTrace is
// the one trace encoding: iosim -trace, the daemon's "sddf" responses
// and iotrace all speak it. Counters that are not per-operation events
// (queue depths, cache totals) are reported beside the trace, not
// inside it.
package pablo

import (
	"fmt"
	"time"
)

// Op identifies an I/O operation type. The set matches the operation rows
// of the paper's Tables 2, 3 and 5.
type Op uint8

const (
	OpOpen Op = iota
	OpGopen
	OpRead
	OpSeek
	OpWrite
	OpIOMode
	OpFlush
	OpClose
	numOps
)

// Ops lists all operation types in table order.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

var opNames = [...]string{
	OpOpen:   "open",
	OpGopen:  "gopen",
	OpRead:   "read",
	OpSeek:   "seek",
	OpWrite:  "write",
	OpIOMode: "iomode",
	OpFlush:  "flush",
	OpClose:  "close",
}

// String returns the operation's table-row name.
func (o Op) String() string {
	if int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// ParseOp converts a table-row name back to an Op.
func ParseOp(s string) (Op, error) {
	for i, n := range opNames {
		if n == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("pablo: unknown op %q", s)
}

// Mode is the PFS file access mode an event ran under. The zero value,
// NoMode, means none; the others follow pfs.Mode's order, one up.
type Mode uint8

const (
	NoMode Mode = iota
	ModeUnix
	ModeLog
	ModeSync
	ModeRecord
	ModeGlobal
	ModeAsync
)

// modeNames is the one table of PFS mode names; pfs.Mode reads it too.
var modeNames = [...]string{
	NoMode:     "",
	ModeUnix:   "M_UNIX",
	ModeLog:    "M_LOG",
	ModeSync:   "M_SYNC",
	ModeRecord: "M_RECORD",
	ModeGlobal: "M_GLOBAL",
	ModeAsync:  "M_ASYNC",
}

// String returns the PFS constant name, e.g. "M_UNIX", or "" for NoMode.
func (m Mode) String() string {
	if int(m) >= len(modeNames) {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode converts a PFS constant name back to a Mode. The empty
// string is not a name: NoMode has no spelling of its own.
func ParseMode(s string) (Mode, error) {
	for i := ModeUnix; int(i) < len(modeNames); i++ {
		if modeNames[i] == s {
			return i, nil
		}
	}
	return NoMode, fmt.Errorf("pablo: unknown access mode %q", s)
}

// Event is one captured I/O operation: who, what, where, when, how long.
//
// The fields are ordered widest first so an Event packs into 56 bytes:
// a full run records hundreds of thousands of them, and the trace is the
// largest thing the simulator holds. File stays a string (see DESIGN.md
// §5 for why it is not an interned id).
type Event struct {
	Start    time.Duration // virtual time at operation start
	Duration time.Duration // operation duration (includes queueing/sync)
	Offset   int64         // file offset (reads/writes/seeks)
	Size     int64         // payload bytes (reads/writes), else 0
	File     string        // file name ("" for operations without one)
	Node     int32         // compute node issuing the operation
	Op       Op            // operation type
	Mode     Mode          // file access mode in effect (NoMode if none)
}

// End returns the event's completion time.
func (e Event) End() time.Duration { return e.Start + e.Duration }

// Tracer consumes events as they are generated.
type Tracer interface {
	Record(Event)
}

// Discard is a Tracer that drops all events (for untraced runs and
// benchmarks of the simulator itself).
var Discard Tracer = discard{}

type discard struct{}

func (discard) Record(Event) {}

// Trace is an in-memory event recorder and the unit of analysis. It is
// not safe for concurrent use; the simulation kernel is single-threaded
// by construction.
type Trace struct {
	events []Event
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Record implements Tracer: it appends ev, O(1) amortized. Backing-array
// growth goes through the event-buffer pool (see pool.go), so a Released
// trace's re-run recycles instead of reallocating.
func (t *Trace) Record(ev Event) {
	if len(t.events) == cap(t.events) {
		t.grow()
	}
	t.events = append(t.events, ev)
}

// grow doubles the backing array, recycling the old buffer when it is
// itself pool-shaped. Below the minimum pooled size a warm pool hands
// over a recycled buffer for free, but a cold pool means plain
// doubling — a short run never pays an allocation the size of a
// pool-class buffer. From the minimum pooled size up, growth goes
// through the pool.
func (t *Trace) grow() {
	newCap := 2 * cap(t.events)
	if newCap < minPooledEvents {
		if buf := tryGetEventBuf(minPooledEvents); buf != nil {
			t.events = append(buf, t.events...)
			return
		}
		if newCap == 0 {
			newCap = 8
		}
		t.events = append(make([]Event, 0, newCap), t.events...)
		return
	}
	buf := getEventBuf(newCap)[:len(t.events)]
	copy(buf, t.events)
	putEventBuf(t.events)
	t.events = buf
}

// Release returns the trace's backing buffer to the event pool and
// resets the trace to empty. Call it only when every view obtained from
// Events()/Filter-by-reference is dead: the buffer will be handed to
// the next recording run, which overwrites it. Release is the opt-in
// hand-back for high-churn paths (suite re-runs, the iosimd daemon);
// traces that simply fall out of scope remain garbage-collected as
// before.
func (t *Trace) Release() {
	putEventBuf(t.events)
	t.events = nil
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Events returns the recorded events in capture order. The slice is the
// trace's backing store; callers must not modify it.
func (t *Trace) Events() []Event { return t.events }

// Filter returns a new trace holding the events for which pred is true,
// preserving order.
func (t *Trace) Filter(pred func(Event) bool) *Trace {
	out := &Trace{}
	for _, ev := range t.events {
		if pred(ev) {
			out.events = append(out.events, ev)
		}
	}
	return out
}

// ByFile returns the events touching the named file, in capture order.
func (t *Trace) ByFile(file string) []Event {
	var out []Event
	for _, ev := range t.events {
		if ev.File == file {
			out = append(out, ev)
		}
	}
	return out
}

// Files returns the distinct file names appearing in the trace, in first-
// appearance order.
func (t *Trace) Files() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ev := range t.events {
		if ev.File != "" && !seen[ev.File] {
			seen[ev.File] = true
			out = append(out, ev.File)
		}
	}
	return out
}

// Span returns the earliest start and latest end across all events, or
// zeros for an empty trace.
func (t *Trace) Span() (start, end time.Duration) {
	if len(t.events) == 0 {
		return 0, 0
	}
	start = t.events[0].Start
	for _, ev := range t.events {
		if ev.Start < start {
			start = ev.Start
		}
		if e := ev.End(); e > end {
			end = e
		}
	}
	return start, end
}

// TotalIOTime returns the summed duration of all events — the
// denominator of the paper's "% of total I/O time" tables. Overlapping
// operations on different nodes are counted once each, exactly as Pablo's
// aggregate summaries do.
func (t *Trace) TotalIOTime() time.Duration {
	var sum time.Duration
	for _, ev := range t.events {
		sum += ev.Duration
	}
	return sum
}
