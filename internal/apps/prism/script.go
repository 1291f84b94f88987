package prism

import (
	"fmt"
	"time"

	"paragonio/internal/pfs"
	"paragonio/internal/workload"
)

// File names used by the workload.
const (
	paramsFile  = "prism/params"
	restartFile = "prism/restart"
	connFile    = "prism/connectivity"
	measureFile = "prism/measurements"
	historyFile = "prism/history"
	chkFile     = "prism/checkpoint"
	fieldFile   = "prism/field"
)

func statsFile(i int) string { return fmt.Sprintf("prism/stats.%d", i) }

// CheckpointFile and RestartFile name the files behind PRISM's dominant
// I/O costs, exported so analyses (e.g. the cache what-if experiment) can
// attribute trace time to them.
const (
	CheckpointFile = chkFile
	RestartFile    = restartFile
)

// headerRegion returns the byte extent of the restart header.
func headerRegion(d Dataset) int64 { return int64(d.HeaderConsults) * d.HeaderSize }

// Script installs the PRISM workload on the machine.
func Script(m *workload.Machine, d Dataset, v Version, seed int64) error {
	if m.Nodes != d.Nodes {
		return fmt.Errorf("prism: machine has %d nodes, dataset needs %d", m.Nodes, d.Nodes)
	}
	m.FS.CreateFile(paramsFile, int64(d.ParamReads)*d.ParamReadSize*2)
	connBytes := int64(d.ConnTextReads) * d.ConnTextSize
	if b := int64(d.ConnBinReads) * d.ConnBinSize; b > connBytes {
		connBytes = b
	}
	m.FS.CreateFile(connFile, connBytes*2)
	m.FS.CreateFile(restartFile, headerRegion(d)+d.BodyBytes())

	all := m.NewCollective("prism-all", d.Nodes)
	var group *pfs.Group
	if v.ParamsGlobal || v.FieldAll || v.UseGopen {
		nodes := make([]int, d.Nodes)
		for i := range nodes {
			nodes[i] = i
		}
		var err error
		group, err = m.FS.NewGroup(nodes)
		if err != nil {
			return err
		}
	}
	m.SpawnNodes(seed, func(n *workload.Node) {
		phase1(n, d, v, all, group)
		phase2(n, d, v, all)
		phase3(n, d, v, all, group)
	})
	return nil
}

func scaled(v Version, t time.Duration) time.Duration {
	return time.Duration(float64(t) * v.ComputeScale)
}

// phase1 initializes the solver from the three input files.
func phase1(n *workload.Node, d Dataset, v Version, all *workload.Collective, g *pfs.Group) {
	p := n.P
	if n.ID == 0 {
		n.M.BeginPhase("one: initialization reads")
	}
	n.ComputeJitter(scaled(v, d.SetupCompute), d.StepJitter)

	// Parameter file.
	readSharedSmall(n, d, v, all, g, paramsFile, d.ParamReads, d.ParamReadSize)

	// Connectivity file.
	if v.ConnBinary {
		readSharedSmall(n, d, v, all, g, connFile, d.ConnBinReads, d.ConnBinSize)
	} else {
		readSharedSmall(n, d, v, all, g, connFile, d.ConnTextReads, d.ConnTextSize)
	}

	// Restart file: header consultations, then the node's body slab.
	switch v.Restart {
	case RestartUnix:
		h := mustOpen(n, restartFile, pfs.MUnix)
		for r := 0; r < d.HeaderConsults; r++ {
			// The UNIX-I/O code repositions at section boundaries.
			if r%8 == 0 {
				mustSeek(n, h, int64(r)*d.HeaderSize)
			}
			mustRead(n, h, d.HeaderSize)
			n.ComputeJitter(d.ParseCompute, d.ParseJitter)
		}
		mustSeek(n, h, headerRegion(d)+int64(n.ID)*d.BodyRecord)
		mustRead(n, h, d.BodyRecord)
		mustClose(n, h)
	case RestartGlobalRecord:
		h := mustOpen(n, restartFile, pfs.MUnix)
		all.Barrier(n) // message-passing sync after the distributed open
		mustIOMode(n, g, h, pfs.MGlobal)
		for r := 0; r < d.HeaderConsults; r++ {
			mustRead(n, h, d.HeaderSize)
			n.ComputeJitter(d.ParseCompute, d.ParseJitter)
		}
		mustIOMode(n, g, h, pfs.MRecord)
		mustSeek(n, h, headerRegion(d)) // records start after the header
		mustRead(n, h, d.BodyRecord)
		mustClose(n, h)
	case RestartAsyncUnbuffered:
		h := mustGopen(n, g, restartFile, pfs.MAsync)
		h.SetBuffering(false) // the version C mistake, before the header
		for r := 0; r < d.HeaderConsults; r++ {
			mustRead(n, h, d.HeaderSize)
			n.ComputeJitter(d.ParseCompute, d.ParseJitter)
		}
		mustSeek(n, h, headerRegion(d)+int64(n.ID)*d.BodyRecord)
		mustRead(n, h, d.BodyRecord)
		if v.FlushRestart {
			if err := h.Flush(p); err != nil {
				panic(err)
			}
		}
		mustClose(n, h)
	}
	all.Barrier(n)
}

// readSharedSmall reads a small shared input file with the version's
// access discipline: per-node M_UNIX reads (A), open + collective
// setiomode to M_GLOBAL (B), or gopen M_GLOBAL (C).
func readSharedSmall(n *workload.Node, d Dataset, v Version, all *workload.Collective, g *pfs.Group, file string, count int, size int64) {
	var h *pfs.Handle
	switch {
	case !v.ParamsGlobal:
		h = mustOpen(n, file, pfs.MUnix)
	case v.UseGopen:
		h = mustGopen(n, g, file, pfs.MGlobal)
	default:
		h = mustOpen(n, file, pfs.MUnix)
		all.Barrier(n) // message-passing sync after the distributed open
		mustIOMode(n, g, h, pfs.MGlobal)
	}
	for r := 0; r < count; r++ {
		mustRead(n, h, size)
		n.ComputeJitter(d.ParseCompute, d.ParseJitter) // parse the record
	}
	mustClose(n, h)
}

// phase2 integrates the Navier-Stokes equations forward in time, with
// node zero writing measurements, history points, flow statistics, and
// periodic checkpoints through M_UNIX.
func phase2(n *workload.Node, d Dataset, v Version, all *workload.Collective) {
	if n.ID == 0 {
		n.M.BeginPhase("two: integration and checkpointing")
	}
	var measure, history, chk *pfs.Handle
	var statsH [3]*pfs.Handle
	if n.ID == 0 {
		measure = mustOpen(n, measureFile, pfs.MUnix)
		history = mustOpen(n, historyFile, pfs.MUnix)
		chk = mustOpen(n, chkFile, pfs.MUnix)
		for i := range statsH {
			statsH[i] = mustOpen(n, statsFile(i), pfs.MUnix)
		}
	}
	// The pressure/viscous solves end each step with a combining
	// reduction (residual norms) across all nodes. Node zero writes
	// between steps; the others do nothing else in the loop, so each runs
	// all its steps in one call.
	if n.ID != 0 {
		all.AllReduceRounds(n, d.Steps, scaled(v, d.StepCompute), d.StepJitter, 64)
	} else {
		for step := 1; step <= d.Steps; step++ {
			all.AllReduceRounds(n, 1, scaled(v, d.StepCompute), d.StepJitter, 64)
			for i := 0; i < d.MeasureWrites; i++ {
				mustWrite(n, measure, d.MeasureSize)
			}
			if step%d.HistoryEvery == 0 {
				mustWrite(n, history, d.HistorySize)
			}
			if step%d.StatsEvery == 0 {
				for i := range statsH {
					mustWrite(n, statsH[i], d.StatsSize)
				}
			}
			if step%d.CheckpointEvery == 0 {
				mustSeek(n, chk, 0)
				mustWrite(n, chk, d.ChkHeaderSize)
				for r := 0; r < d.Nodes; r++ {
					mustWrite(n, chk, d.BodyRecord)
				}
			}
		}
	}
	if n.ID == 0 {
		mustClose(n, measure)
		mustClose(n, history)
		mustClose(n, chk)
		for i := range statsH {
			mustClose(n, statsH[i])
		}
	}
	all.Barrier(n)
}

// phase3 transforms results back to physical space and writes the field
// file: node zero alone in version A, all nodes through M_ASYNC in B/C.
func phase3(n *workload.Node, d Dataset, v Version, all *workload.Collective, g *pfs.Group) {
	if n.ID == 0 {
		n.M.BeginPhase("three: field file output")
	}
	n.ComputeJitter(scaled(v, d.PostCompute), d.StepJitter)
	if !v.FieldAll {
		if n.ID == 0 {
			h := mustOpen(n, fieldFile, pfs.MUnix)
			for r := 0; r < d.Nodes; r++ {
				mustWrite(n, h, d.BodyRecord)
			}
			for r := 0; r < 6; r++ {
				mustWrite(n, h, d.TrailerSize)
			}
			mustClose(n, h)
		}
		all.Barrier(n)
		return
	}
	var h *pfs.Handle
	if v.UseGopen {
		h = mustGopen(n, g, fieldFile, pfs.MAsync)
	} else {
		h = mustOpen(n, fieldFile, pfs.MUnix)
		all.Barrier(n) // message-passing sync after the distributed open
		mustIOMode(n, g, h, pfs.MAsync)
	}
	mustSeek(n, h, int64(n.ID)*d.BodyRecord)
	mustWrite(n, h, d.BodyRecord)
	mustSeek(n, h, d.BodyBytes()+int64(n.ID)*d.TrailerSize)
	mustWrite(n, h, d.TrailerSize)
	mustClose(n, h)
	all.Barrier(n)
}

// ---- small panic-on-error helpers (a workload bug is a programming
// error, not a runtime condition to handle) ----

func mustOpen(n *workload.Node, file string, mode pfs.Mode) *pfs.Handle {
	h, err := n.M.FS.Open(n.P, n.ID, file, mode)
	if err != nil {
		panic(err)
	}
	return h
}

func mustGopen(n *workload.Node, g *pfs.Group, file string, mode pfs.Mode) *pfs.Handle {
	h, err := g.Gopen(n.P, n.ID, file, mode)
	if err != nil {
		panic(err)
	}
	return h
}

func mustIOMode(n *workload.Node, g *pfs.Group, h *pfs.Handle, mode pfs.Mode) {
	if err := g.SetIOMode(n.P, h, mode); err != nil {
		panic(err)
	}
}

func mustRead(n *workload.Node, h *pfs.Handle, size int64) {
	if _, err := h.Read(n.P, size); err != nil {
		panic(err)
	}
}

func mustWrite(n *workload.Node, h *pfs.Handle, size int64) {
	if _, err := h.Write(n.P, size); err != nil {
		panic(err)
	}
}

func mustSeek(n *workload.Node, h *pfs.Handle, off int64) {
	if err := h.Seek(n.P, off); err != nil {
		panic(err)
	}
}

func mustClose(n *workload.Node, h *pfs.Handle) {
	if err := h.Close(n.P); err != nil {
		panic(err)
	}
}
