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
//     granularity) in one pass, keeping one record per file and one per
//     (file, node) stream;
//   - Advise reads one Profile and emits access-mode Recommendations
//     (see docs/ADVISOR.md for the full recommendation catalog);
//   - AdviseTiers evaluates each file's cache signals once, renders its
//     cache findings, and merges them into the single cache.Tiers a run
//     can actually be configured with, weighing pro-cache traffic
//     against the traffic a server tier would hurt; WriteAdvice renders
//     everything for the CLI surfaces.
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
	"slices"
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

	BytesWritten int64

	// SmallReadFrac: fraction of reads below 2 KB (the paper's "small"
	// threshold). SmallWriteFrac: fraction of writes below 4 KB —
	// writes that cannot amortize positioning even within one stripe.
	SmallReadFrac, SmallWriteFrac float64

	// SeqReadFrac: fraction of a node's reads continuing at its previous
	// end offset, averaged over the nodes with at least two reads, summed
	// in node order so the result is the same on every call.
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

	// UnixReads and UnixWrites report whether any of the file's reads or
	// writes went through M_UNIX — mode changes mid-file (the PRISM
	// restart pattern) make the split matter.
	UnixReads, UnixWrites bool

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

// fileState is Classify's one record per file: the Profile being built,
// the file's streams, and the counters the closing pass turns into the
// Profile's fractions.
type fileState struct {
	p         *Profile
	streams   map[int32]*stream
	blocks    map[int64]*fileBlock // block reuse table
	readSizes map[int64]int        // reads per request size
	// Read block-touches: all of them, the returns to a block the same
	// node left, and the touches on blocks the trace wrote earlier.
	readTouches, reuseTouches, rawTouches int
}

// stream is Classify's one record per (file, node): one node's accesses
// to one file.
type stream struct {
	node    int
	ops     int // data operations so far
	seqHits int // reads continuing at the previous read's end offset
	lastEnd int64
	reads   []extent             // every read, in order
	writes  []int64              // every write's offset, in order
	blocks  map[int64]*nodeTouch // blocks the node read
}

// extent is one read's (offset, size).
type extent struct{ off, size int64 }

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
	files := make(map[string]*fileState)
	for _, ev := range t.Events() {
		if ev.File == "" {
			continue
		}
		f := files[ev.File]
		if f == nil {
			f = &fileState{
				p:         &Profile{File: ev.File},
				streams:   make(map[int32]*stream),
				blocks:    make(map[int64]*fileBlock),
				readSizes: make(map[int64]int),
			}
			files[ev.File] = f
		}
		p := f.p
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
			p.UnixReads = p.UnixReads || ev.Mode == pablo.ModeUnix
			if ev.Size < 2048 {
				p.SmallReadFrac++ // normalized later
			}
			s := f.stream(ev.Node)
			if len(s.reads) > 0 && s.lastEnd == ev.Offset {
				s.seqHits++
			}
			s.lastEnd = ev.Offset + ev.Size
			s.reads = append(s.reads, extent{ev.Offset, ev.Size})
			f.readSizes[ev.Size]++
			p.ReadTime += ev.Duration
			// Block-granular reuse signals.
			idx := s.ops
			s.ops++
			for b := ev.Offset / SignalBlock; b <= (ev.Offset+ev.Size-1)/SignalBlock; b++ {
				info := f.block(b)
				f.readTouches++
				info.readTouches++
				if !info.read {
					info.read = true
					info.firstReader = s.node
				} else if info.firstReader != s.node {
					info.shared = true
				}
				if info.written {
					f.rawTouches++
				}
				if nt := s.blocks[b]; nt != nil {
					if nt.lastIdx < idx-1 {
						// A return to a block this node left — per-client
						// temporal reuse, not stream continuation.
						f.reuseTouches++
						if gap := ev.Start - nt.lastTime; gap > p.MaxReuseGap {
							p.MaxReuseGap = gap
						}
						if span := ev.Start - nt.firstTime; span > p.MaxReuseSpan {
							p.MaxReuseSpan = span
						}
					}
					nt.lastIdx, nt.lastTime = idx, ev.Start
				} else {
					s.blocks[b] = &nodeTouch{lastIdx: idx, lastTime: ev.Start, firstTime: ev.Start}
				}
			}
		case pablo.OpWrite:
			if ev.Size <= 0 {
				continue
			}
			p.Writes++
			p.UnixWrites = p.UnixWrites || ev.Mode == pablo.ModeUnix
			p.BytesWritten += ev.Size
			if ev.Size < 4096 {
				p.SmallWriteFrac++
			}
			s := f.stream(ev.Node)
			s.writes = append(s.writes, ev.Offset)
			p.WriteTime += ev.Duration
			s.ops++
			for b := ev.Offset / SignalBlock; b <= (ev.Offset+ev.Size-1)/SignalBlock; b++ {
				f.block(b).written = true
			}
		}
	}
	out := make(map[string]*Profile, len(files))
	for name, f := range files {
		out[name] = f.profile()
	}
	return out
}

// stream returns the file's stream for node, creating it on first use.
func (f *fileState) stream(node int32) *stream {
	s := f.streams[node]
	if s == nil {
		s = &stream{node: int(node), blocks: make(map[int64]*nodeTouch)}
		f.streams[node] = s
	}
	return s
}

// block returns the file's reuse record for block b, creating it on
// first use.
func (f *fileState) block(b int64) *fileBlock {
	info := f.blocks[b]
	if info == nil {
		info = &fileBlock{firstReader: -1}
		f.blocks[b] = info
	}
	return info
}

// profile finishes the file's Profile from its streams and block table.
func (f *fileState) profile() *Profile {
	p := f.p
	streams := make([]*stream, 0, len(f.streams))
	for _, s := range f.streams {
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].node < streams[j].node })

	var readers, writers []*stream
	var seqSum float64
	var seqNodes int
	for _, s := range streams {
		if n := len(s.reads); n > 0 {
			readers = append(readers, s)
			p.Readers = append(p.Readers, s.node)
			if n >= 2 {
				seqSum += float64(s.seqHits) / float64(n-1)
				seqNodes++
			}
			if ws := int64(len(s.blocks)) * SignalBlock; ws > p.PerNodeReadWS {
				p.PerNodeReadWS = ws
			}
		}
		if len(s.writes) > 0 {
			writers = append(writers, s)
			p.Writers = append(p.Writers, s.node)
		}
	}
	if seqNodes > 0 {
		p.SeqReadFrac = seqSum / float64(seqNodes)
	}
	if p.Reads > 0 {
		p.SmallReadFrac /= float64(p.Reads)
	}
	if p.Writes > 0 {
		p.SmallWriteFrac /= float64(p.Writes)
		p.SeeksPerWrite = float64(p.Seeks) / float64(p.Writes)
	}
	p.IdenticalReads = identicalReads(readers)
	p.InterleavedWrites = interleavedWrites(writers)
	p.FixedReadSize = dominantSize(f.readSizes, p.Reads)

	// Reuse signals from the block table.
	var readBlocks, writeBlocks, sharedTouches int
	for _, info := range f.blocks {
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
	if rt := f.readTouches; rt > 0 {
		p.SharedReadFrac = float64(sharedTouches) / float64(rt)
		p.ReuseReadFrac = float64(f.reuseTouches) / float64(rt)
		p.ReadAfterWriteFrac = float64(f.rawTouches) / float64(rt)
	}
	return p
}

// identicalReads reports whether every reading stream issued the same
// (offset, size) sequence.
func identicalReads(readers []*stream) bool {
	if len(readers) < 2 {
		return false
	}
	ref := readers[0].reads
	for _, s := range readers[1:] {
		if !slices.Equal(s.reads, ref) {
			return false
		}
	}
	return true
}

// interleavedWrites reports whether several writers wrote node-strided
// interleaved offsets (each node's successive offsets advance by the
// same stride, and nodes' bases differ).
func interleavedWrites(writers []*stream) bool {
	if len(writers) < 2 {
		return false
	}
	var stride int64
	for _, s := range writers {
		offs := s.writes
		if len(offs) < 2 {
			return false
		}
		d := offs[1] - offs[0]
		if d <= 0 || (stride != 0 && d != stride) {
			return false
		}
		for i := 2; i < len(offs); i++ {
			if offs[i]-offs[i-1] != d {
				return false
			}
		}
		stride = d
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
