// Package replay re-executes the data operations of a captured Pablo
// trace against a different simulated machine — the paper's planned
// study of "the effects of different machine configurations (e.g.,
// number of I/O nodes) ... on I/O performance", made possible without
// re-running the application.
//
// The replay is data-path-oriented: each node's read and write requests
// are reissued in order at their recorded offsets, with the gaps
// between a node's operations (computation, synchronization, metadata
// time) optionally preserved as think time. Mode-level software
// serialization is not re-simulated — the recorded stream already
// reflects how the modes shaped request timing — so the replay isolates
// the storage and interconnect question: how would this request stream
// fare on K I/O nodes with stripe unit S and disk D?
package replay

import (
	"fmt"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/pfs"
	"paragonio/internal/workload"
)

// Config selects the target machine and replay behavior.
type Config struct {
	// Platform overrides for the target machine; Nodes is derived from
	// the trace and must be left zero.
	Platform core.Config
	// PreserveGaps reinserts each node's inter-operation idle time as
	// virtual think time, keeping the replay's concurrency structure
	// close to the original. When false, each node issues its requests
	// back to back (a pure storage stress replay).
	PreserveGaps bool
}

// Outcome reports the replay next to the original trace's quantities.
type Outcome struct {
	// Result is the run on the target machine, with its own trace.
	Result *core.Result
	// Original quantities, from the input trace (data ops only).
	OriginalDataTime time.Duration
	OriginalSpan     time.Duration
	// Replay quantities (data ops only).
	ReplayDataTime time.Duration
	ReplaySpan     time.Duration
	// Requests replayed.
	Reads, Writes int
}

// Speedup returns original/replay data-time ratio (>1: the target
// machine serves the stream faster).
func (o *Outcome) Speedup() float64 {
	if o.ReplayDataTime <= 0 {
		return 0
	}
	return float64(o.OriginalDataTime) / float64(o.ReplayDataTime)
}

// nodeOp is one replayable operation.
type nodeOp struct {
	think time.Duration // idle before issuing (PreserveGaps)
	write bool
	file  string
	off   int64
	size  int64
}

// Replay reissues the trace's data requests on the target machine.
func Replay(tr *pablo.Trace, cfg Config) (*Outcome, error) {
	if cfg.Platform.Nodes != 0 {
		return nil, fmt.Errorf("replay: Platform.Nodes is derived from the trace; leave it zero")
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	// Partition data ops by node, preserving order; size the namespace.
	maxNode := 0
	extent := map[string]int64{}
	ops := map[int][]nodeOp{}
	lastEnd := map[int]time.Duration{}
	var origData time.Duration
	var reads, writes int
	for _, ev := range tr.Events() {
		node := int(ev.Node)
		if node > maxNode {
			maxNode = node
		}
		if ev.Op != pablo.OpRead && ev.Op != pablo.OpWrite {
			// Non-data time becomes part of the node's gap.
			continue
		}
		if ev.Size <= 0 {
			continue
		}
		origData += ev.Duration
		if ev.Op == pablo.OpRead {
			reads++
		} else {
			writes++
		}
		think := time.Duration(0)
		if prev, ok := lastEnd[node]; ok {
			if gap := ev.Start - prev; gap > 0 {
				think = gap
			}
		} else if ev.Start > 0 {
			think = ev.Start
		}
		lastEnd[node] = ev.End()
		ops[node] = append(ops[node], nodeOp{
			think: think,
			write: ev.Op == pablo.OpWrite,
			file:  ev.File,
			off:   ev.Offset,
			size:  ev.Size,
		})
		if end := ev.Offset + ev.Size; end > extent[ev.File] {
			extent[ev.File] = end
		}
	}
	if reads+writes == 0 {
		return nil, fmt.Errorf("replay: trace has no data operations")
	}
	start, end := tr.Span()

	pcfg := cfg.Platform
	pcfg.Nodes = maxNode + 1
	res, err := core.Run(pcfg, "replay", "trace", func(m *workload.Machine, seed int64) error {
		for name, size := range extent {
			m.FS.CreateFile(name, size)
		}
		m.SpawnNodes(seed, func(n *workload.Node) {
			handles := map[string]*pfs.Handle{}
			handleFor := func(file string) *pfs.Handle {
				if h, ok := handles[file]; ok {
					return h
				}
				h, err := m.FS.Open(n.P, n.ID, file, pfs.MAsync)
				if err != nil {
					panic(err)
				}
				handles[file] = h
				return h
			}
			for _, op := range ops[n.ID] {
				if cfg.PreserveGaps && op.think > 0 {
					n.Compute(op.think)
				}
				h := handleFor(op.file)
				if h.Ptr() != op.off {
					if err := h.Seek(n.P, op.off); err != nil {
						panic(err)
					}
				}
				var err error
				if op.write {
					_, err = h.Write(n.P, op.size)
				} else {
					_, err = h.Read(n.P, op.size)
				}
				if err != nil {
					panic(err)
				}
			}
			for _, h := range handles {
				if err := h.Close(n.P); err != nil {
					panic(err)
				}
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Result:           res,
		OriginalDataTime: origData,
		OriginalSpan:     end - start,
		ReplaySpan:       res.Exec,
		Reads:            reads,
		Writes:           writes,
	}
	for _, ev := range res.Trace.Events() {
		if (ev.Op == pablo.OpRead || ev.Op == pablo.OpWrite) && ev.Size > 0 {
			out.ReplayDataTime += ev.Duration
		}
	}
	return out, nil
}
