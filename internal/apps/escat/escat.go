// Package escat reproduces the I/O behavior of ESCAT, the parallel
// Schwinger Multichannel electron-scattering code of section 4 of the
// paper, as a synthetic workload: four I/O phases (compulsory input
// reads, quadrature data staging writes, quadrature reload reads, result
// writes), with the per-version node activity and PFS access modes of
// Table 1 and the request-size populations of Figures 2-4.
//
// Physics is modeled as calibrated virtual-time compute delays; every
// I/O call is issued against the simulated PFS exactly as the paper
// describes for each code version.
package escat

import (
	"context"
	"fmt"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/workload"
)

// Dataset describes one ESCAT problem instance.
type Dataset struct {
	Name     string
	Nodes    int
	Channels int // collision channels; staging/output files per channel

	// Phase one: input files.
	InputFiles      int
	HeaderReads     int             // small reads per input file
	HeaderSizes     workload.Choice // small request sizes (< 2 KB)
	MatrixReadSizes []int64         // the few large reads per input file

	// Phase two: quadrature staging (per channel).
	Cycles         int             // compute/write cycles
	WritesPerCycle int             // writes per node per cycle (versions B/C)
	WriteSize      int64           // single write size (versions B/C)
	WriteSizesA    workload.Choice // version A's four request sizes

	// Phase three: quadrature reload.
	ChunkRead    int64         // version A: node-zero chunk size (< 2 KB)
	RecordSize   int64         // versions B/C: M_RECORD size (2x stripe unit)
	EnergySweeps int           // full reload passes (energies evaluated)
	EnergyJitter time.Duration // per-node imbalance entering each sweep

	// Phase four: results.
	ResultWrites int
	ResultSizes  workload.Choice

	// Compute model.
	CycleCompute  time.Duration // per compute/write cycle
	CycleJitter   time.Duration // per-node imbalance
	SetupCompute  time.Duration // phase-one local setup
	EnergyCompute time.Duration // phase-three per-sweep computation
}

// QuadBytes returns the staged quadrature volume per channel, which is
// fixed by the write pattern of versions B/C.
func (d Dataset) QuadBytes() int64 {
	return int64(d.Cycles) * int64(d.WritesPerCycle) * int64(d.Nodes) * d.WriteSize
}

// Validate reports whether the dataset is runnable.
func (d Dataset) Validate() error {
	switch {
	case d.Nodes <= 0:
		return fmt.Errorf("escat: Nodes = %d", d.Nodes)
	case d.Channels <= 0:
		return fmt.Errorf("escat: Channels = %d", d.Channels)
	case d.InputFiles <= 0:
		return fmt.Errorf("escat: InputFiles = %d", d.InputFiles)
	case d.Cycles <= 0 || d.WritesPerCycle <= 0 || d.WriteSize <= 0:
		return fmt.Errorf("escat: invalid staging parameters")
	case d.RecordSize <= 0 || d.ChunkRead <= 0:
		return fmt.Errorf("escat: invalid reload parameters")
	case d.EnergySweeps <= 0:
		return fmt.Errorf("escat: EnergySweeps = %d", d.EnergySweeps)
	}
	return nil
}

// Ethylene returns the paper's baseline problem: electronic excitation
// of ethylene to its first triplet state — two collision channels on 128
// processors.
func Ethylene() Dataset {
	return Dataset{
		Name:     "ethylene",
		Nodes:    128,
		Channels: 2,

		InputFiles:  3,
		HeaderReads: 120,
		HeaderSizes: workload.Choice{
			Sizes:   []int64{40, 200, 800, 1800},
			Weights: []float64{30, 25, 25, 20},
		},
		MatrixReadSizes: []int64{131072, 131072},

		Cycles:         42,
		WritesPerCycle: 1,
		WriteSize:      2720,
		WriteSizesA: workload.Choice{
			Sizes:   []int64{424, 1088, 2176, 2720},
			Weights: []float64{20, 30, 30, 20},
		},

		ChunkRead:    2040,
		RecordSize:   131072, // two PFS stripes
		EnergySweeps: 1,
		EnergyJitter: 12 * time.Second,

		ResultWrites: 40,
		ResultSizes: workload.Choice{
			Sizes:   []int64{1088, 2720},
			Weights: []float64{50, 50},
		},

		CycleCompute:  64 * time.Second,
		CycleJitter:   8 * time.Second,
		SetupCompute:  30 * time.Second,
		EnergyCompute: 120 * time.Second,
	}
}

// CarbonMonoxide returns the larger problem of Table 3's last column:
// electronic excitation of carbon monoxide — 13 collision channels on
// 256 processors, where I/O reaches ~20% of execution time even after
// optimization.
func CarbonMonoxide() Dataset {
	d := Ethylene()
	d.Name = "carbon-monoxide"
	d.Nodes = 256
	d.Channels = 13
	d.Cycles = 60
	d.EnergySweeps = 8
	d.CycleCompute = 5 * time.Second
	d.CycleJitter = 1500 * time.Millisecond
	d.SetupCompute = 20 * time.Second
	d.EnergyCompute = 80 * time.Second
	d.EnergyJitter = 5 * time.Second
	return d
}

// VersionCCarbonMonoxide is the version C build as run for the carbon-
// monoxide study: reload files are gopen'd directly in M_RECORD (Table
// 3's carbon-monoxide column has no iomode row).
func VersionCCarbonMonoxide() Version {
	v := VersionC()
	v.DirectRecordGopen = true
	v.UseIOMode = false
	v.RestartStaged = true
	return v
}

// Version describes one ESCAT code progression: which nodes perform I/O
// in each phase and with which PFS access mode (the rows of Table 1),
// plus a compute scale capturing the non-I/O effects of each rebuild
// (instrumentation overhead, numerics restructuring).
type Version struct {
	ID     string // "A", "A2", "B1", "B2", "B3", "C"
	Family string // "A", "B" or "C": the structure analyzed in the paper
	OS     string // operating system release
	Pablo  string // instrumentation version
	Label  string

	Phase1AllNodes bool     // A: all nodes read inputs; B/C: node 0 + broadcast
	Phase2AllNodes bool     // B/C: all nodes write staging data
	Phase2Mode     pfs.Mode // M_UNIX (A and B) or M_ASYNC (C)
	SeeksPerWrite  int      // pointer positioning ops per staging write (B/C)
	Phase3Record   bool     // B/C: M_RECORD reload; A: node 0 reads + broadcast
	UseGopen       bool     // B/C: collective opens for staging files
	UseIOMode      bool     // B/C: explicit setiomode calls
	// DirectRecordGopen opens reload files with M_RECORD directly in
	// gopen instead of a separate setiomode (the carbon-monoxide runs,
	// whose Table 3 column has no iomode row).
	DirectRecordGopen bool
	// RestartStaged starts from quadrature data staged by a previous
	// run, skipping phase two entirely — the production mode the
	// energy-independent formulation enables, and the configuration of
	// the paper's carbon-monoxide measurements (write 0.03%%, seek 0.00%%
	// of execution time).
	RestartStaged bool

	ComputeScale float64
}

// VersionA is the initial code, structured for the Intel Touchstone
// Delta's Concurrent File System: everything through M_UNIX, all nodes
// reading inputs concurrently, node zero funneling all writes.
func VersionA() Version {
	return Version{
		ID: "A", Family: "A", OS: "OSF/1 R1.2", Pablo: "Pablo Beta",
		Label:          "initial port (CFS style)",
		Phase1AllNodes: true,
		Phase2Mode:     pfs.MUnix,
		ComputeScale:   1.015,
	}
}

// VersionB restructures I/O: node-zero read + broadcast for inputs,
// concurrent staging writes through M_UNIX with per-write seeks, and
// M_RECORD reloads.
func VersionB() Version {
	return Version{
		ID: "B", Family: "B", OS: "OSF/1 R1.2", Pablo: "Pablo 4.0",
		Label:          "restructured I/O (M_UNIX staging writes)",
		Phase2AllNodes: true,
		Phase2Mode:     pfs.MUnix,
		SeeksPerWrite:  2,
		Phase3Record:   true,
		UseGopen:       true,
		UseIOMode:      true,
		ComputeScale:   0.90,
	}
}

// VersionC switches the staging writes to the M_ASYNC mode introduced in
// OSF/1 R1.3, eliminating seek/atomicity serialization.
func VersionC() Version {
	return Version{
		ID: "C", Family: "C", OS: "OSF/1 R1.3", Pablo: "Pablo 4.0",
		Label:          "M_ASYNC staging writes",
		Phase2AllNodes: true,
		Phase2Mode:     pfs.MAsync,
		SeeksPerWrite:  1,
		Phase3Record:   true,
		UseGopen:       true,
		UseIOMode:      true,
		ComputeScale:   0.85,
	}
}

// Progressions returns the six builds of Figure 1 in chronological
// order: two A-family builds, three B-family builds, and the final C.
func Progressions() []Version {
	a := VersionA()
	a2 := VersionA()
	a2.ID, a2.Pablo, a2.ComputeScale = "A2", "Pablo 4.0", 1.0
	a2.Label = "initial port, lighter instrumentation"
	b1 := VersionB()
	b1.ID, b1.ComputeScale = "B1", 0.93
	b2 := VersionB()
	b2.ID, b2.ComputeScale = "B2", 0.915
	b3 := VersionB()
	b3.ID, b3.OS, b3.ComputeScale = "B3", "OSF/1 R1.3", 0.90
	b3.Label = "restructured I/O, OSF/1 R1.3"
	c := VersionC()
	return []Version{a, a2, b1, b2, b3, c}
}

// PaperVersions returns the three versions analyzed in detail (Tables
// 1-3): A, B, C.
func PaperVersions() []Version {
	return []Version{VersionA(), VersionB(), VersionC()}
}

// ModeTableRow describes one phase's node activity and access mode —
// a row of the paper's Table 1.
type ModeTableRow struct {
	Phase    string
	Activity string
	Mode     string
}

// ModeTable returns this version's Table 1 column.
func (v Version) ModeTable() []ModeTableRow {
	rows := make([]ModeTableRow, 0, 4)
	if v.Phase1AllNodes {
		rows = append(rows, ModeTableRow{"Phase One", "All Nodes", "M_UNIX"})
	} else {
		rows = append(rows, ModeTableRow{"Phase One", "Node zero", "M_UNIX"})
	}
	if v.Phase2AllNodes {
		rows = append(rows, ModeTableRow{"Phase Two", "All Nodes", v.Phase2Mode.String()})
	} else {
		rows = append(rows, ModeTableRow{"Phase Two", "Node zero", "M_UNIX"})
	}
	if v.Phase3Record {
		rows = append(rows, ModeTableRow{"Phase Three", "All Nodes", "M_RECORD"})
	} else {
		rows = append(rows, ModeTableRow{"Phase Three", "Node zero", "M_UNIX"})
	}
	rows = append(rows, ModeTableRow{"Phase Four", "Node zero", "M_UNIX"})
	return rows
}

// InputBytesPerFile returns the expected bytes in one input file (the
// header population's mean times count, plus the matrix reads).
func (d Dataset) InputBytesPerFile() int64 {
	var mean float64
	var wsum float64
	for i, s := range d.HeaderSizes.Sizes {
		mean += float64(s) * d.HeaderSizes.Weights[i]
		wsum += d.HeaderSizes.Weights[i]
	}
	mean /= wsum
	total := int64(mean * float64(d.HeaderReads))
	for _, s := range d.MatrixReadSizes {
		total += s
	}
	return total
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
		return nil, fmt.Errorf("escat: config nodes %d != dataset nodes %d", cfg.Nodes, d.Nodes)
	}
	return core.RunTo(ctx, cfg, rec, "ESCAT", v.ID, func(m *workload.Machine, seed int64) error {
		return Script(m, d, v, seed)
	})
}
