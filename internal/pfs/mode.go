// Package pfs simulates the Intel Paragon XP/S Parallel File System (PFS)
// as described in section 3.2 of the paper: files striped in 64 KB units
// across 16 I/O nodes (each a RAID-3 array), a metadata service, and the
// six file access modes with their distinct pointer-sharing, atomicity,
// and synchronization semantics:
//
//	M_UNIX   — default; per-process pointers, UNIX sharing semantics,
//	           request atomicity preserved by a per-file token, so
//	           concurrent access serializes (and shared-state seeks are
//	           expensive under contention).
//	M_RECORD — per-process pointers, fixed-size records, node-ordered
//	           synchronized rounds; record r of round k belongs to node
//	           r, so nodes sweep disjoint file areas in parallel.
//	M_ASYNC  — per-process pointers, variable sizes, no atomicity and no
//	           synchronization; seeks are purely local.
//	M_GLOBAL — shared pointer, all nodes access the same data in a
//	           synchronized fashion; the file system performs one disk
//	           I/O and broadcasts the result.
//	M_SYNC   — shared pointer, node-ordered synchronized rounds,
//	           per-node request sizes may vary.
//	M_LOG    — shared pointer, first-come-first-served, unsynchronized;
//	           the mode used for stdout-style log files.
//
// Every operation is traced through a pablo.Tracer, with durations that
// include queueing and synchronization delay — exactly what the Pablo
// instrumentation measured on the real machine.
package pfs

import (
	"fmt"

	"paragonio/internal/pablo"
)

// Mode is a PFS file access mode.
type Mode int

const (
	MUnix Mode = iota
	MLog
	MSync
	MRecord
	MGlobal
	MAsync
	numModes
)

// String returns the PFS constant name, e.g. "M_UNIX".
func (m Mode) String() string {
	if m < 0 || m >= numModes {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return m.traced().String()
}

// traced returns the mode as a trace event records it. The names live
// in one table in pablo, whose modes follow this order one up (its zero
// is "no mode").
func (m Mode) traced() pablo.Mode { return pablo.Mode(m + 1) }

// ParseMode converts a PFS constant name back to a Mode.
func ParseMode(s string) (Mode, error) {
	pm, err := pablo.ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("pfs: unknown access mode %q", s)
	}
	return Mode(pm - 1), nil
}

// Modes lists all access modes.
func Modes() []Mode {
	out := make([]Mode, numModes)
	for i := range out {
		out[i] = Mode(i)
	}
	return out
}

// Collective reports whether the mode's data operations are collective:
// every member of the opening group must participate in each operation.
func (m Mode) Collective() bool {
	switch m {
	case MRecord, MGlobal, MSync:
		return true
	}
	return false
}

// SharedPointer reports whether all processes share a single file pointer.
func (m Mode) SharedPointer() bool {
	switch m {
	case MGlobal, MSync, MLog:
		return true
	}
	return false
}
