// Package prism reproduces the I/O behavior of PRISM, the parallel 3-D
// spectral-element Navier-Stokes solver of section 5 of the paper, as a
// synthetic workload: three I/O phases (compulsory initialization reads
// from parameter/restart/connectivity files, integration-time
// checkpointing and measurement writes through node zero, and the final
// field dump), with the per-version node activity and PFS access modes
// of Table 4 and the request populations of Figures 7-9.
//
// The version C quirk the paper analyzes in detail — disabling client
// I/O buffering before reading the restart file, which made the repeated
// sub-40-byte header consultations catastrophically expensive — is
// reproduced directly through the file system's buffering control.
package prism

import (
	"context"
	"fmt"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/workload"
)

// Dataset describes one PRISM test problem.
type Dataset struct {
	Name            string
	Nodes           int // 64 in the paper's runs
	Elements        int // spectral element count (201)
	Reynolds        int // Reynolds number (1000)
	Steps           int // integration time steps (1250)
	CheckpointEvery int // steps between checkpoints (250 -> 5 checkpoints)

	// Phase one: the three input files.
	ParamReads     int   // small text reads of the parameter file, per reader
	ParamReadSize  int64 // ~48 bytes
	HeaderConsults int   // restart-header consultations, per node (< 40 B each)
	HeaderSize     int64 // 36 bytes
	BodyRecord     int64 // restart body record: 155,584 bytes, one per node
	ConnTextReads  int   // connectivity reads when parsed as text (A, B)
	ConnTextSize   int64
	ConnBinReads   int // connectivity reads when binary (C)
	ConnBinSize    int64

	// Phase two: integration output through node zero.
	MeasureWrites int   // per-step measurement items (lift/drag/energy)
	MeasureSize   int64 // < 40 bytes each
	HistoryEvery  int   // steps between history-point writes
	HistorySize   int64
	StatsEvery    int // steps between flow-statistics writes (3 files)
	StatsSize     int64
	ChkHeaderSize int64 // checkpoint header write

	// Phase three: the field file.
	TrailerSize int64 // per-node small trailer write

	// Compute model.
	SetupCompute time.Duration // phase-one mesh/boundary setup
	ParseCompute time.Duration // per input read: text parsing / setup
	ParseJitter  time.Duration
	StepCompute  time.Duration // per integration step
	StepJitter   time.Duration
	PostCompute  time.Duration // phase-three transform to physical space
}

// BodyBytes returns the restart body size: one record per node.
func (d Dataset) BodyBytes() int64 { return int64(d.Nodes) * d.BodyRecord }

// Validate reports whether the dataset is runnable.
func (d Dataset) Validate() error {
	switch {
	case d.Nodes <= 0:
		return fmt.Errorf("prism: Nodes = %d", d.Nodes)
	case d.Steps <= 0 || d.CheckpointEvery <= 0:
		return fmt.Errorf("prism: invalid step configuration")
	case d.BodyRecord <= 0:
		return fmt.Errorf("prism: BodyRecord = %d", d.BodyRecord)
	case d.ParamReads <= 0 || d.HeaderConsults <= 0:
		return fmt.Errorf("prism: invalid phase-one configuration")
	case d.ConnTextReads <= 0 || d.ConnBinReads <= 0:
		return fmt.Errorf("prism: invalid connectivity configuration")
	}
	return nil
}

// TestProblem returns the paper's PRISM test problem: 201 mesh elements,
// Reynolds number 1000, 1250 time steps with checkpoints every 250, on
// 64 nodes of the Caltech Paragon.
func TestProblem() Dataset {
	return Dataset{
		Name:            "cylinder-flow-201",
		Nodes:           64,
		Elements:        201,
		Reynolds:        1000,
		Steps:           1250,
		CheckpointEvery: 250,

		ParamReads:     60,
		ParamReadSize:  36,
		HeaderConsults: 16,
		HeaderSize:     36,
		BodyRecord:     155584,
		ConnTextReads:  150,
		ConnTextSize:   72,
		ConnBinReads:   20,
		ConnBinSize:    1024,

		MeasureWrites: 3,
		MeasureSize:   28,
		HistoryEvery:  10,
		HistorySize:   152,
		StatsEvery:    50,
		StatsSize:     368,
		ChkHeaderSize: 32,

		TrailerSize: 24,

		SetupCompute: 30 * time.Second,
		ParseCompute: 2 * time.Millisecond,
		ParseJitter:  30 * time.Millisecond,
		StepCompute:  7 * time.Second,
		StepJitter:   400 * time.Millisecond,
		PostCompute:  60 * time.Second,
	}
}

// RestartStyle selects how the restart file is accessed in phase one —
// the axis along which the three versions differ most.
type RestartStyle int

const (
	// RestartUnix: every node opens the restart file M_UNIX, consults
	// the header through the (buffered) shared-token path, seeks to its
	// slab and reads it (version A).
	RestartUnix RestartStyle = iota
	// RestartGlobalRecord: header via M_GLOBAL (one disk read,
	// broadcast), body via M_RECORD, switching modes mid-file
	// (version B).
	RestartGlobalRecord
	// RestartAsyncUnbuffered: M_ASYNC with client buffering disabled
	// before any access — every header consultation becomes a
	// synchronous disk round trip (version C).
	RestartAsyncUnbuffered
)

// Version describes one PRISM build (a column of Table 4).
type Version struct {
	ID    string
	OS    string
	Pablo string
	Label string

	ParamsGlobal bool // params/connectivity via M_GLOBAL (B, C)
	UseGopen     bool // collective gopen instead of open+iomode (C)
	Restart      RestartStyle
	ConnBinary   bool // connectivity read as binary (C)
	FieldAll     bool // phase three written by all nodes via M_ASYNC (B, C)
	FlushRestart bool // explicit flush of the restart handle (C)

	ComputeScale float64
}

// VersionA is the initial code: standard UNIX I/O, all nodes reading all
// inputs, all writes through node zero.
func VersionA() Version {
	return Version{
		ID: "A", OS: "OSF/1 R1.3", Pablo: "Pablo 4.0",
		Label:        "initial port (UNIX I/O throughout)",
		Restart:      RestartUnix,
		ComputeScale: 1.0,
	}
}

// VersionB adopts collective reads: M_GLOBAL for the parameter and
// connectivity files and the restart header, M_RECORD for the restart
// body, and concurrent M_ASYNC writes of the field file.
func VersionB() Version {
	return Version{
		ID: "B", OS: "OSF/1 R1.3", Pablo: "Pablo 4.0",
		Label:        "collective initialization reads",
		ParamsGlobal: true,
		Restart:      RestartGlobalRecord,
		FieldAll:     true,
		ComputeScale: 0.84,
	}
}

// VersionC replaces open/setiomode pairs with gopen, reads the
// connectivity file as binary, and — the paper's cautionary tale —
// disables client I/O buffering before accessing the restart file.
func VersionC() Version {
	return Version{
		ID: "C", OS: "OSF/1 R1.3", Pablo: "Pablo 4.0",
		Label:        "gopen + binary connectivity + unbuffered restart",
		ParamsGlobal: true,
		UseGopen:     true,
		Restart:      RestartAsyncUnbuffered,
		ConnBinary:   true,
		FieldAll:     true,
		FlushRestart: true,
		ComputeScale: 0.79,
	}
}

// PaperVersions returns the three analyzed versions in order.
func PaperVersions() []Version {
	return []Version{VersionA(), VersionB(), VersionC()}
}

// ModeTable returns this version's Table 4 column.
func (v Version) ModeTable() []workload.ModeRow {
	pmode := "P: M_UNIX"
	cmode := "C: M_UNIX"
	if v.ParamsGlobal {
		pmode = "P: M_GLOBAL"
		cmode = "C: M_GLOBAL"
	}
	var rmode string
	switch v.Restart {
	case RestartUnix:
		rmode = "R: M_UNIX"
	case RestartGlobalRecord:
		rmode = "R(h): M_GLOBAL, R(b): M_RECORD"
	case RestartAsyncUnbuffered:
		rmode = "R: M_ASYNC"
	}
	field := workload.ModeRow{Phase: "Phase Three", Activity: "Node Zero", Mode: "M_UNIX"}
	if v.FieldAll {
		field = workload.ModeRow{Phase: "Phase Three", Activity: "All Nodes", Mode: "M_ASYNC"}
	}
	return []workload.ModeRow{
		{Phase: "Phase One", Activity: "All Nodes", Mode: pmode + "; " + rmode + "; " + cmode},
		{Phase: "Phase Two", Activity: "Node Zero", Mode: "M_UNIX"},
		field,
	}
}

// Run executes the dataset under the given version on the platform cfg
// selects and returns the captured result. cfg.Nodes 0 means the
// dataset's node count; cfg.Seed fixes all workload randomness. An
// expiring or cancelled ctx aborts the simulation mid-run (see
// core.RunContext).
func Run(ctx context.Context, cfg core.Config, d Dataset, v Version) (*core.Result, error) {
	return RunTo(ctx, cfg, pablo.NewTrace(), d, v)
}

// RunTo is Run with the events recorded to rec (see core.RunTo).
func RunTo(ctx context.Context, cfg core.Config, rec pablo.Tracer, d Dataset, v Version) (*core.Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = d.Nodes
	}
	if cfg.Nodes != d.Nodes {
		return nil, fmt.Errorf("prism: config nodes %d != dataset nodes %d", cfg.Nodes, d.Nodes)
	}
	return core.RunTo(ctx, cfg, rec, "PRISM", v.ID, func(m *workload.Machine, seed int64) error {
		return Script(m, d, v, seed)
	})
}
