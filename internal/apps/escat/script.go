package escat

import (
	"fmt"
	"math/rand"
	"time"

	"paragonio/internal/pfs"
	"paragonio/internal/workload"
)

// QuadFile returns the name of one channel's quadrature staging file,
// exported so analyses (e.g. the cache what-if experiment) can attribute
// trace time to the staging writes.
func QuadFile(ch int) string { return fmt.Sprintf("escat/quad.%d", ch) }

// OutFile returns the result file name for a collision channel.
func OutFile(ch int) string { return fmt.Sprintf("escat/out.%d", ch) }

// fileNames holds one run's file names, built once in Script so that no
// open formats a name.
type fileNames struct {
	input, quad, out []string
}

func newFileNames(d Dataset) *fileNames {
	f := &fileNames{
		input: make([]string, d.InputFiles),
		quad:  make([]string, d.Channels),
		out:   make([]string, d.Channels),
	}
	for i := range f.input {
		f.input[i] = fmt.Sprintf("escat/input.%d", i)
	}
	for ch := range f.quad {
		f.quad[ch] = QuadFile(ch)
		f.out[ch] = OutFile(ch)
	}
	return f
}

// Script installs the ESCAT workload on the machine: it preloads the
// input files, spawns one process per node, and drives the four phases
// according to the version's structure. The kernel is run by the caller.
func Script(m *workload.Machine, d Dataset, v Version, seed int64) error {
	if m.Nodes != d.Nodes {
		return fmt.Errorf("escat: machine has %d nodes, dataset needs %d", m.Nodes, d.Nodes)
	}
	names := newFileNames(d)
	for _, name := range names.input {
		// Headroom over the expected size so the randomized header reads
		// never clamp at EOF.
		m.FS.CreateFile(name, d.InputBytesPerFile()*2)
	}
	if v.RestartStaged {
		// Quadrature data was staged by a previous run of the same
		// problem; phase two is skipped.
		for _, name := range names.quad {
			m.FS.CreateFile(name, d.QuadBytes())
		}
	}
	all := m.NewCollective("escat-all", d.Nodes)
	var group *pfs.Group
	if v.Phase2AllNodes || v.Phase3Record {
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
	// Header read sizes are a property of the input files' contents, so
	// every node issues the identical request sequence (the signature a
	// smarter file system would recognize as a broadcast-worthy global
	// read). Derive them once per file from the run seed.
	headerSizes := make([][]int64, d.InputFiles)
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	for i := range headerSizes {
		sizes := make([]int64, d.HeaderReads)
		for r := range sizes {
			sizes[r] = d.HeaderSizes.Next(rng)
		}
		headerSizes[i] = sizes
	}
	m.SpawnNodes(seed, func(n *workload.Node) {
		runNode(n, d, v, names, all, group, headerSizes)
	})
	return nil
}

// scaled applies the version's compute scale.
func scaled(v Version, t time.Duration) time.Duration {
	return time.Duration(float64(t) * v.ComputeScale)
}

func runNode(n *workload.Node, d Dataset, v Version, names *fileNames, all *workload.Collective, g *pfs.Group, headerSizes [][]int64) {
	phase1(n, d, v, names, all, headerSizes)
	phase2(n, d, v, names, all, g)
	phase3(n, d, v, names, all, g)
	phase4(n, d, v, names, all)
}

// phase1 reads the initialization files (compulsory I/O). Version A:
// every node opens and reads them through M_UNIX, serializing on the
// file tokens. Versions B/C: node zero reads and broadcasts.
func phase1(n *workload.Node, d Dataset, v Version, names *fileNames, all *workload.Collective, headerSizes [][]int64) {
	if n.ID == 0 {
		n.M.BeginPhase("one: initialization reads")
	}
	n.ComputeJitter(scaled(v, d.SetupCompute), d.CycleJitter/4)
	if v.Phase1AllNodes {
		readInputs(n, d, names, headerSizes)
		all.Barrier(n)
		return
	}
	if n.ID == 0 {
		readInputs(n, d, names, headerSizes)
	}
	all.Broadcast(n, 0, int64(d.InputFiles)*d.InputBytesPerFile())
}

// readInputs opens and reads every input file: the header as a long run
// of small reads, then the few large matrix reads (with a repositioning
// seek before each, as the original code's record-structured input did).
func readInputs(n *workload.Node, d Dataset, names *fileNames, headerSizes [][]int64) {
	p := n.P
	for i := 0; i < d.InputFiles; i++ {
		h, err := n.M.FS.Open(p, n.ID, names.input[i], pfs.MUnix)
		if err != nil {
			panic(err)
		}
		for _, sz := range headerSizes[i] {
			if _, err := h.Read(p, sz); err != nil {
				panic(err)
			}
		}
		var off int64 = 0
		// Matrices sit at the end of the file; position and read each.
		matBase := d.InputBytesPerFile()
		for _, s := range d.MatrixReadSizes {
			matBase -= s
		}
		off = matBase
		for _, s := range d.MatrixReadSizes {
			if err := h.Seek(p, off); err != nil {
				panic(err)
			}
			if _, err := h.Read(p, s); err != nil {
				panic(err)
			}
			off += s
		}
		if err := h.Close(p); err != nil {
			panic(err)
		}
	}
}

// phase2 generates and stages the quadrature data (data staging): a
// series of compute/write cycles with synchronized write steps.
func phase2(n *workload.Node, d Dataset, v Version, names *fileNames, all *workload.Collective, g *pfs.Group) {
	p := n.P
	all.Barrier(n)
	if n.ID == 0 {
		n.M.BeginPhase("two: quadrature staging writes")
	}
	if v.RestartStaged {
		return // staged by a previous run
	}
	for ch := 0; ch < d.Channels; ch++ {
		if v.Phase2AllNodes {
			// B/C: every node writes its own interleaved slots.
			var h *pfs.Handle
			var err error
			if v.UseGopen {
				h, err = g.Gopen(p, n.ID, names.quad[ch], pfs.MUnix)
			} else {
				h, err = n.M.FS.Open(p, n.ID, names.quad[ch], pfs.MUnix)
			}
			if err != nil {
				panic(err)
			}
			if v.UseIOMode {
				if err := g.SetIOMode(p, h, v.Phase2Mode); err != nil {
					panic(err)
				}
			}
			for cyc := 0; cyc < d.Cycles; cyc++ {
				// write steps are synchronized among nodes
				all.BarrierRounds(n, 1, scaled(v, d.CycleCompute), d.CycleJitter)
				for w := 0; w < d.WritesPerCycle; w++ {
					slot := (int64(cyc)*int64(d.WritesPerCycle)+int64(w))*int64(d.Nodes) + int64(n.ID)
					off := slot * d.WriteSize
					// Position to the computed offset (node number,
					// iteration, stripe size), write, then reposition the
					// pointer past the region for the next iteration's
					// bookkeeping — two pointer operations per write.
					if err := h.Seek(p, off); err != nil {
						panic(err)
					}
					if _, err := h.Write(p, d.WriteSize); err != nil {
						panic(err)
					}
					for s := 1; s < v.SeeksPerWrite; s++ {
						if err := h.Seek(p, off+d.WriteSize); err != nil {
							panic(err)
						}
					}
				}
			}
			if err := h.Close(p); err != nil {
				panic(err)
			}
			continue
		}
		// A: all nodes compute and synchronize; node zero collects the
		// cycle's data and writes it with four request sizes.
		var h *pfs.Handle
		var err error
		if n.ID == 0 {
			h, err = n.M.FS.Open(p, 0, names.quad[ch], pfs.MUnix)
			if err != nil {
				panic(err)
			}
		}
		cycleBytes := d.QuadBytes() / int64(d.Cycles)
		perNode := cycleBytes / int64(d.Nodes)
		for cyc := 0; cyc < d.Cycles; cyc++ {
			all.BarrierRounds(n, 1, scaled(v, d.CycleCompute), d.CycleJitter)
			all.Gather(n, 0, perNode)
			if n.ID == 0 {
				remaining := cycleBytes
				for remaining > 0 {
					sz := d.WriteSizesA.Next(n.RNG)
					if sz > remaining {
						sz = remaining
					}
					if _, err := h.Write(p, sz); err != nil {
						panic(err)
					}
					remaining -= sz
				}
			}
		}
		if n.ID == 0 {
			if err := h.Close(p); err != nil {
				panic(err)
			}
		}
	}
}

// phase3 reloads the quadrature data for the energy-dependent solves.
// Version A: node zero reads small chunks and broadcasts them. B/C: all
// nodes read 128 KB records (two stripe units) through M_RECORD.
func phase3(n *workload.Node, d Dataset, v Version, names *fileNames, all *workload.Collective, g *pfs.Group) {
	p := n.P
	all.Barrier(n)
	if n.ID == 0 {
		n.M.BeginPhase("three: quadrature reload reads")
	}
	for sweep := 0; sweep < d.EnergySweeps; sweep++ {
		n.ComputeJitter(scaled(v, d.EnergyCompute), d.EnergyJitter)
		for ch := 0; ch < d.Channels; ch++ {
			size := n.M.FS.FileSize(names.quad[ch])
			if v.Phase3Record {
				var h *pfs.Handle
				var err error
				if v.DirectRecordGopen {
					h, err = g.Gopen(p, n.ID, names.quad[ch], pfs.MRecord)
				} else {
					h, err = g.Gopen(p, n.ID, names.quad[ch], pfs.MUnix)
					if err == nil {
						err = g.SetIOMode(p, h, pfs.MRecord)
					}
				}
				if err != nil {
					panic(err)
				}
				records := (size + d.RecordSize - 1) / d.RecordSize
				rounds := int((records + int64(d.Nodes) - 1) / int64(d.Nodes))
				for r := 0; r < rounds; r++ {
					if _, err := h.Read(p, d.RecordSize); err != nil {
						panic(err)
					}
				}
				if err := h.Close(p); err != nil {
					panic(err)
				}
				continue
			}
			// A: node zero chunk-reads and broadcasts in batches.
			const chunksPerBatch = 64
			chunks := (size + d.ChunkRead - 1) / d.ChunkRead
			batches := int((chunks + chunksPerBatch - 1) / chunksPerBatch)
			var h *pfs.Handle
			if n.ID == 0 {
				var err error
				h, err = n.M.FS.Open(p, 0, names.quad[ch], pfs.MUnix)
				if err != nil {
					panic(err)
				}
			}
			left := chunks
			for b := 0; b < batches; b++ {
				batch := int64(chunksPerBatch)
				if batch > left {
					batch = left
				}
				if n.ID == 0 {
					for c := int64(0); c < batch; c++ {
						if _, err := h.Read(p, d.ChunkRead); err != nil {
							panic(err)
						}
					}
				}
				all.Broadcast(n, 0, batch*d.ChunkRead)
				left -= batch
			}
			if n.ID == 0 {
				if err := h.Close(p); err != nil {
					panic(err)
				}
			}
		}
	}
}

// phase4 writes the per-channel results (compulsory output) through
// node zero, in all versions.
func phase4(n *workload.Node, d Dataset, v Version, names *fileNames, all *workload.Collective) {
	p := n.P
	all.Barrier(n)
	if n.ID == 0 {
		n.M.BeginPhase("four: result writes")
	}
	if n.ID == 0 {
		for ch := 0; ch < d.Channels; ch++ {
			h, err := n.M.FS.Open(p, 0, names.out[ch], pfs.MUnix)
			if err != nil {
				panic(err)
			}
			var off int64
			for w := 0; w < d.ResultWrites; w++ {
				// The result file is section-structured: reposition at
				// section boundaries (every 8 writes).
				if w%8 == 0 {
					if err := h.Seek(p, off); err != nil {
						panic(err)
					}
				}
				sz := d.ResultSizes.Next(n.RNG)
				if _, err := h.Write(p, sz); err != nil {
					panic(err)
				}
				off += sz
			}
			if err := h.Close(p); err != nil {
				panic(err)
			}
		}
	}
	all.Barrier(n)
}
