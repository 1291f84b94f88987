// Package policy operationalizes the paper's conclusions (section 7):
// it classifies per-file access patterns from Pablo traces and recommends
// the file-system features — collective opens, access modes, request
// aggregation, prefetching, write-behind — that would serve each pattern.
// Advice is a pure function of a trace: the package runs no simulation.
//
// The package has three layers:
//
//   - Classify turns a trace into per-file Profiles (request sizes,
//     sequentiality, sharing, block-granular reuse at SignalBlock
//     granularity);
//   - Advise and AdviseCache read one Profile and emit Recommendations —
//     access-mode advice and cache-configuration advice respectively,
//     the latter carrying concrete cache.Tiers fragments (see
//     docs/ADVISOR.md for the full recommendation catalog);
//   - AdviseTiers merges the per-file cache findings into the single
//     cache.Tiers a run can actually be configured with, weighing
//     pro-cache traffic against the traffic a server tier would hurt,
//     and WriteAdvice renders everything for the CLI surfaces.
//
// The policies it recommends run as the cache tiers of internal/cache
// (I/O-node write-behind and read-ahead, the lease-coherent client tier,
// the host-side log); the cachewhatif, clientcache and logtier experiment
// families measure what each one buys.
//
// Run against the version A traces, the advisor reproduces the tuning
// decisions the application developers made by hand over eighteen months
// (broadcast-style global reads, M_ASYNC staging writes, M_RECORD
// reloads), which is exactly the paper's argument for smarter file
// systems; the experiments package's advisor family replays the cache
// advice through the simulator and scores it against oracle-best sweeps.
package policy

import (
	"sort"
	"time"

	"paragonio/internal/pablo"
)

// Profile summarizes one file's observed access pattern.
type Profile struct {
	File string

	Readers []int // nodes that read
	Writers []int // nodes that wrote

	Reads, Writes, Seeks, Opens, Gopens int

	BytesRead, BytesWritten int64

	// MeanReadSize and MeanWriteSize are in bytes (0 when no ops).
	MeanReadSize, MeanWriteSize float64

	// SmallReadFrac: fraction of reads below 2 KB (the paper's "small"
	// threshold). SmallWriteFrac: fraction of writes below 4 KB —
	// writes that cannot amortize positioning even within one stripe.
	SmallReadFrac, SmallWriteFrac float64

	// SeqReadFrac: fraction of a node's reads continuing at its previous
	// end offset, averaged over nodes.
	SeqReadFrac float64

	// IdenticalReads: every reading node issued the same (offset, size)
	// sequence — the signature of a broadcast-worthy global read.
	IdenticalReads bool

	// InterleavedWrites: multiple writers whose offsets interleave in a
	// regular node-strided pattern (the staging-write signature).
	InterleavedWrites bool

	// FixedReadSize is non-zero when >90% of non-trivial reads share one
	// size (an M_RECORD candidate when nodes read disjoint areas).
	FixedReadSize int64

	// SeeksPerWrite: seek ops per write op (pointer-repositioning load).
	SeeksPerWrite float64

	// Modes observed on the file's operations (all types), and on the
	// data operations specifically — mode changes mid-file (the PRISM
	// restart pattern) make the distinction matter.
	Modes      map[string]int
	ReadModes  map[string]int
	WriteModes map[string]int

	// ReadTime and WriteTime are the summed durations of the file's data
	// operations — the advisor's weights when files pull a shared cache
	// configuration in different directions.
	ReadTime, WriteTime time.Duration

	// The remaining signals are block-granular (SignalBlock bytes) and
	// feed the cache advisor: they measure reuse, not request shape.

	// ReadWS and WriteWS are the distinct bytes read/written, rounded up
	// to whole blocks (the footprint a cache would need to hold). WriteWS
	// also bounds rewrite absorption: BytesWritten much larger than
	// WriteWS means the same blocks are overwritten again and again.
	ReadWS, WriteWS int64
	// PerNodeReadWS is the largest single node's distinct bytes read —
	// the footprint a per-client cache would need.
	PerNodeReadWS int64
	// ReadOpsPerBlock is read operations per distinct block read. Values
	// far above 1 mean the read stream is served from a small resident
	// set (the PRISM restart header: thousands of sub-block consults of
	// one block), which any cache collapses to memory copies.
	ReadOpsPerBlock float64
	// SharedReadFrac is the fraction of read block-touches landing on
	// blocks that at least two nodes read — reuse a shared (I/O-node)
	// cache can serve but a per-client cache would only duplicate.
	SharedReadFrac float64
	// ReuseReadFrac is the fraction of read block-touches that RETURN to
	// a block the same node touched before, excluding straight
	// continuation (the previous operation touching the same block).
	// This is per-client temporal reuse — the client-tier signal.
	ReuseReadFrac float64
	// MaxReuseGap is the longest virtual-time gap of such a return — a
	// client lease must outlive it for the reuse to hit.
	MaxReuseGap time.Duration
	// MaxReuseSpan is the longest first-touch-to-last-return interval of
	// such reuse on any (node, block). The client tier never renews a
	// lease locally — only a directory round-trip re-installs it — so a
	// lease taken at first touch must outlive the whole span, not just
	// the longest single gap, for every return to hit.
	MaxReuseSpan time.Duration
	// ReadAfterWriteFrac is the fraction of read block-touches landing on
	// blocks this trace wrote earlier — a staging pattern: with
	// write-behind those blocks are already resident, so read-ahead
	// would only pollute.
	ReadAfterWriteFrac float64
}

// SignalBlock is the block granularity (bytes) of the Profile's reuse
// signals — matched to the default PFS stripe unit, which is also the
// cache tiers' default block size.
const SignalBlock int64 = 64 * 1024

// nodeKey identifies one node's stream against one file.
type nodeKey struct {
	file string
	node int
}

// fileBlock is the per-(file, block) reuse bookkeeping for the cache
// signals: who read it first, whether it became shared, whether it was
// written before being read.
type fileBlock struct {
	readTouches int
	firstReader int
	shared      bool
	written     bool
	read        bool
}

// nodeTouch records one node's visits to one block.
type nodeTouch struct {
	lastIdx   int // index of the node's last data op touching this block
	lastTime  time.Duration
	firstTime time.Duration
}

// Classify builds a Profile for each file in the trace, keyed by name.
func Classify(t *pablo.Trace) map[string]*Profile {
	out := make(map[string]*Profile)
	lastEnd := make(map[nodeKey]int64)
	seqHits := make(map[nodeKey]int)
	readsBy := make(map[nodeKey]int)
	readSeq := make(map[nodeKey][]pablo.Event)
	writeOffsets := make(map[string]map[int][]int64)
	readSizes := make(map[string]map[int64]int)

	blocks := make(map[string]map[int64]*fileBlock) // per file
	nodeBlocks := make(map[nodeKey]map[int64]*nodeTouch)
	nodeOps := make(map[nodeKey]int) // data-op counter per (file, node)
	readTouches := make(map[string]int)
	reuseTouches := make(map[string]int)
	rawTouches := make(map[string]int) // read-after-write block touches

	fileBlocks := func(file string) map[int64]*fileBlock {
		m := blocks[file]
		if m == nil {
			m = make(map[int64]*fileBlock)
			blocks[file] = m
		}
		return m
	}

	get := func(file string) *Profile {
		p := out[file]
		if p == nil {
			p = &Profile{
				File:       file,
				Modes:      make(map[string]int),
				ReadModes:  make(map[string]int),
				WriteModes: make(map[string]int),
			}
			out[file] = p
		}
		return p
	}
	readerSet := make(map[string]map[int]bool)
	writerSet := make(map[string]map[int]bool)

	for _, ev := range t.Events() {
		if ev.File == "" {
			continue
		}
		p := get(ev.File)
		node, mode := int(ev.Node), ev.Mode.String()
		p.Modes[mode]++
		k := nodeKey{ev.File, node}
		switch ev.Op {
		case pablo.OpOpen:
			p.Opens++
		case pablo.OpGopen:
			p.Gopens++
		case pablo.OpSeek:
			p.Seeks++
		case pablo.OpRead:
			if ev.Size <= 0 {
				continue
			}
			p.Reads++
			p.ReadModes[mode]++
			p.BytesRead += ev.Size
			if ev.Size < 2048 {
				p.SmallReadFrac++ // normalized later
			}
			if readerSet[ev.File] == nil {
				readerSet[ev.File] = map[int]bool{}
			}
			readerSet[ev.File][node] = true
			if lastEnd[k] == ev.Offset && readsBy[k] > 0 {
				seqHits[k]++
			}
			readsBy[k]++
			lastEnd[k] = ev.Offset + ev.Size
			readSeq[k] = append(readSeq[k], ev)
			if readSizes[ev.File] == nil {
				readSizes[ev.File] = map[int64]int{}
			}
			readSizes[ev.File][ev.Size]++
			p.ReadTime += ev.Duration
			// Block-granular reuse signals.
			fb := fileBlocks(ev.File)
			nb := nodeBlocks[k]
			if nb == nil {
				nb = make(map[int64]*nodeTouch)
				nodeBlocks[k] = nb
			}
			idx := nodeOps[k]
			nodeOps[k] = idx + 1
			for b := ev.Offset / SignalBlock; b <= (ev.Offset+ev.Size-1)/SignalBlock; b++ {
				info := fb[b]
				if info == nil {
					info = &fileBlock{firstReader: -1}
					fb[b] = info
				}
				readTouches[ev.File]++
				info.readTouches++
				if !info.read {
					info.read = true
					info.firstReader = node
				} else if info.firstReader != node {
					info.shared = true
				}
				if info.written {
					rawTouches[ev.File]++
				}
				if nt := nb[b]; nt != nil {
					if nt.lastIdx < idx-1 {
						// A return to a block this node left — per-client
						// temporal reuse, not stream continuation.
						reuseTouches[ev.File]++
						if gap := ev.Start - nt.lastTime; gap > p.MaxReuseGap {
							p.MaxReuseGap = gap
						}
						if span := ev.Start - nt.firstTime; span > p.MaxReuseSpan {
							p.MaxReuseSpan = span
						}
					}
					nt.lastIdx, nt.lastTime = idx, ev.Start
				} else {
					nb[b] = &nodeTouch{lastIdx: idx, lastTime: ev.Start, firstTime: ev.Start}
				}
			}
		case pablo.OpWrite:
			if ev.Size <= 0 {
				continue
			}
			p.Writes++
			p.WriteModes[mode]++
			p.BytesWritten += ev.Size
			if ev.Size < 4096 {
				p.SmallWriteFrac++
			}
			if writerSet[ev.File] == nil {
				writerSet[ev.File] = map[int]bool{}
			}
			writerSet[ev.File][node] = true
			if writeOffsets[ev.File] == nil {
				writeOffsets[ev.File] = map[int][]int64{}
			}
			writeOffsets[ev.File][node] = append(writeOffsets[ev.File][node], ev.Offset)
			p.WriteTime += ev.Duration
			fb := fileBlocks(ev.File)
			idx := nodeOps[k]
			nodeOps[k] = idx + 1
			for b := ev.Offset / SignalBlock; b <= (ev.Offset+ev.Size-1)/SignalBlock; b++ {
				info := fb[b]
				if info == nil {
					info = &fileBlock{firstReader: -1}
					fb[b] = info
				}
				info.written = true
			}
		}
	}

	for file, p := range out {
		p.Readers = sortedNodes(readerSet[file])
		p.Writers = sortedNodes(writerSet[file])
		if p.Reads > 0 {
			p.MeanReadSize = float64(p.BytesRead) / float64(p.Reads)
			p.SmallReadFrac /= float64(p.Reads)
		}
		if p.Writes > 0 {
			p.MeanWriteSize = float64(p.BytesWritten) / float64(p.Writes)
			p.SmallWriteFrac /= float64(p.Writes)
			p.SeeksPerWrite = float64(p.Seeks) / float64(p.Writes)
		}
		// Sequentiality: average per-node fraction.
		var seqSum float64
		var nodes int
		for k, n := range readsBy {
			if k.file != file || n < 2 {
				continue
			}
			seqSum += float64(seqHits[k]) / float64(n-1)
			nodes++
		}
		if nodes > 0 {
			p.SeqReadFrac = seqSum / float64(nodes)
		}
		p.IdenticalReads = identicalReads(file, p.Readers, readSeq)
		p.InterleavedWrites = interleavedWrites(writeOffsets[file])
		p.FixedReadSize = dominantSize(readSizes[file], p.Reads)

		// Reuse signals from the block bookkeeping.
		var readBlocks, writeBlocks, sharedTouches int
		for _, info := range blocks[file] {
			if info.read {
				readBlocks++
				if info.shared {
					sharedTouches += info.readTouches
				}
			}
			if info.written {
				writeBlocks++
			}
		}
		p.ReadWS = int64(readBlocks) * SignalBlock
		p.WriteWS = int64(writeBlocks) * SignalBlock
		if readBlocks > 0 {
			p.ReadOpsPerBlock = float64(p.Reads) / float64(readBlocks)
		}
		if rt := readTouches[file]; rt > 0 {
			p.SharedReadFrac = float64(sharedTouches) / float64(rt)
			p.ReuseReadFrac = float64(reuseTouches[file]) / float64(rt)
			p.ReadAfterWriteFrac = float64(rawTouches[file]) / float64(rt)
		}
		for _, node := range p.Readers {
			if ws := int64(len(nodeBlocks[nodeKey{file, node}])) * SignalBlock; ws > p.PerNodeReadWS {
				p.PerNodeReadWS = ws
			}
		}
	}
	return out
}

func sortedNodes(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// identicalReads reports whether every reading node issued the same
// (offset, size) sequence.
func identicalReads(file string, readers []int, seq map[nodeKey][]pablo.Event) bool {
	if len(readers) < 2 {
		return false
	}
	ref := seq[nodeKey{file, readers[0]}]
	for _, node := range readers[1:] {
		other := seq[nodeKey{file, node}]
		if len(other) != len(ref) {
			return false
		}
		for i := range ref {
			if ref[i].Offset != other[i].Offset || ref[i].Size != other[i].Size {
				return false
			}
		}
	}
	return len(ref) > 0
}

// interleavedWrites reports whether several writers wrote node-strided
// interleaved offsets (each node's successive offsets advance by the
// same stride, and nodes' bases differ).
func interleavedWrites(byNode map[int][]int64) bool {
	if len(byNode) < 2 {
		return false
	}
	var strides []int64
	for _, offs := range byNode {
		if len(offs) < 2 {
			return false
		}
		stride := offs[1] - offs[0]
		if stride <= 0 {
			return false
		}
		for i := 2; i < len(offs); i++ {
			if offs[i]-offs[i-1] != stride {
				return false
			}
		}
		strides = append(strides, stride)
	}
	for _, s := range strides[1:] {
		if s != strides[0] {
			return false
		}
	}
	return true
}

// dominantSize returns the request size covering >90% of reads, or 0.
func dominantSize(counts map[int64]int, total int) int64 {
	if total == 0 {
		return 0
	}
	for size, n := range counts {
		if float64(n) > 0.9*float64(total) {
			return size
		}
	}
	return 0
}
