package pfs

import (
	"time"

	"paragonio/internal/sim"
)

// UtilSample is one periodic snapshot of the file system's servers: the
// counters reported beside the I/O event trace (core.Result.Samples, the
// daemon's samples block). It exposes the mechanism the paper's results
// hinge on: queue depths, above all the file token's (the M_UNIX
// serialization of version B's seeks).
type UtilSample struct {
	T time.Duration
	// IONodeQueue is each I/O node's instantaneous request queue length.
	IONodeQueue []int
	// MetaQueue is the metadata service's instantaneous queue length.
	MetaQueue int
	// TokenQueue is the summed instantaneous queue length across all
	// file atomicity tokens.
	TokenQueue int
}

// Sampler periodically snapshots a file system from inside the
// simulation. It stops itself when it is the only live process left, so
// it extends the run by at most one interval past the application's end.
type Sampler struct {
	fs      *FileSystem
	samples []UtilSample
}

// NewSampler installs a sampling process on the file system's kernel.
// interval must be positive. Call before Kernel.Run.
func NewSampler(fs *FileSystem, interval time.Duration) *Sampler {
	if interval <= 0 {
		panic("pfs: sampler interval must be positive")
	}
	s := &Sampler{fs: fs}
	fs.k.Spawn("pfs-sampler", func(p *sim.Proc) {
		for {
			// Last one standing: the application is done.
			if fs.k.LiveProcs() <= 1 {
				return
			}
			p.Wait(interval)
			s.take(p.Now())
		}
	})
	return s
}

// take records one snapshot.
func (s *Sampler) take(now time.Duration) {
	sample := UtilSample{
		T:           now,
		IONodeQueue: make([]int, len(s.fs.ios)),
		MetaQueue:   s.fs.meta.QueueLen(),
	}
	for i, io := range s.fs.ios {
		sample.IONodeQueue[i] = io.res.QueueLen()
	}
	for _, f := range s.fs.byID {
		sample.TokenQueue += f.token.QueueLen()
	}
	s.samples = append(s.samples, sample)
}

// Samples returns the collected snapshots in time order.
func (s *Sampler) Samples() []UtilSample {
	return append([]UtilSample(nil), s.samples...)
}
