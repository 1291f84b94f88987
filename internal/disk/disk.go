// Package disk models the storage hardware behind each Paragon I/O node:
// a RAID-3 disk array (byte-striped with a dedicated parity drive, so the
// array behaves like one large disk whose transfer rate is the sum of the
// data drives and whose positioning cost is that of a single actuator).
//
// The service-time model distinguishes sequential from non-sequential
// access: a request continuing where the previous one ended pays only
// transfer cost; any other request pays seek plus half-rotation before
// transferring. This is the mechanism behind the paper's central
// observation that large stripe-aligned requests achieve high transfer
// rates while small scattered requests are dominated by positioning.
package disk

import (
	"fmt"
	"time"
)

// Params describes one member drive and the array geometry.
type Params struct {
	AvgSeek    time.Duration // average actuator seek
	TrackSeek  time.Duration // track-to-track (near-sequential) seek
	Rotation   time.Duration // one full platter revolution
	DiskBW     float64       // sustained bytes/second per data drive
	Overhead   time.Duration // controller + SCSI per-request overhead
	DataDisks  int           // data drives in the RAID-3 group (parity excluded)
	CapacityGB float64       // usable capacity (sizes the optional I/O-node cache)
}

// DefaultParams returns parameters for the 4.8 GB RAID-3 arrays on the
// Caltech Paragon's I/O nodes: four data drives of early-90s SCSI disks
// (~12 ms seek, 4500 RPM, ~2.5 MB/s sustained each).
func DefaultParams() Params {
	return Params{
		AvgSeek:    12 * time.Millisecond,
		TrackSeek:  2 * time.Millisecond,
		Rotation:   13300 * time.Microsecond, // 4500 RPM
		DiskBW:     2.5e6,
		Overhead:   1 * time.Millisecond,
		DataDisks:  4,
		CapacityGB: 4.8,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	if p.DataDisks < 1 {
		return fmt.Errorf("disk: DataDisks = %d, need >= 1", p.DataDisks)
	}
	if p.DiskBW <= 0 {
		return fmt.Errorf("disk: DiskBW = %g, need > 0", p.DiskBW)
	}
	if p.AvgSeek < 0 || p.TrackSeek < 0 || p.Rotation < 0 || p.Overhead < 0 {
		return fmt.Errorf("disk: negative timing parameter")
	}
	if p.TrackSeek > p.AvgSeek {
		return fmt.Errorf("disk: TrackSeek %v exceeds AvgSeek %v", p.TrackSeek, p.AvgSeek)
	}
	if p.CapacityGB <= 0 {
		// Capacity used to be informational; the I/O-node buffer cache
		// now sizes itself relative to it, so it must be meaningful.
		return fmt.Errorf("disk: CapacityGB = %g, need > 0", p.CapacityGB)
	}
	return nil
}

// ArrayBW returns the aggregate data bandwidth of the array in
// bytes/second.
func (p Params) ArrayBW() float64 { return p.DiskBW * float64(p.DataDisks) }

// Array is the stateful service-time model for one RAID-3 array. It
// remembers the head position (as the end of the last request, tagged by
// stream) to price sequentiality. Array is not safe for concurrent use;
// in the simulator each array sits behind a FIFO resource.
type Array struct {
	p Params

	lastStream int32 // stream of the previous request (-1 before the first)
	lastEnd    int64 // byte offset where the previous request ended

	// fault-plane state (see internal/faults): degraded marks one data
	// drive failed, slow is a straggler service-time multiplier (1 =
	// nominal). Both are flipped by scheduled DES events.
	degraded bool
	slow     float64

	// accumulated statistics
	requests    uint64
	seqHits     uint64
	degradedOps uint64
	bytesMoved  int64
	busy        time.Duration
}

// NewArray returns an array model with the given parameters.
func NewArray(p Params) (*Array, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Array{p: p, lastStream: -1, slow: 1}, nil
}

// MustNewArray is NewArray, panicking on invalid parameters.
func MustNewArray(p Params) *Array {
	a, err := NewArray(p)
	if err != nil {
		panic(err)
	}
	return a
}

// SetDegraded switches the array into (or out of) single-disk-failure
// degraded mode. In RAID-3 a lost data drive is reconstructed on the fly
// from the survivors plus parity, so the array keeps serving — but every
// request pays an extra reconstruction pass and the aggregate transfer
// rate drops to the surviving data drives.
func (a *Array) SetDegraded(on bool) { a.degraded = on }

// SetSlow installs a straggler service-time multiplier (>= 1; 1 restores
// nominal speed). It panics on factors below 1 — a "fast fault" would
// break the FIFO resource's non-negative hold invariant.
func (a *Array) SetSlow(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("disk: slow factor %g < 1", factor))
	}
	a.slow = factor
}

// Service returns the time to serve a request of size bytes at offset
// within stream (the file's pfs id: a stream identifies one file's
// extent on this array, so sequentiality is only recognized within a
// stream). It updates the head-position state and statistics. size must
// be positive and stream non-negative; an array's first request is
// always positioned.
func (a *Array) Service(stream int32, offset, size int64) time.Duration {
	if size <= 0 {
		panic(fmt.Sprintf("disk: non-positive request size %d", size))
	}
	d := a.p.Overhead
	if a.lastStream == stream && a.lastEnd == offset {
		// Sequential continuation: near-free positioning.
		d += a.p.TrackSeek / 4
		a.seqHits++
	} else {
		d += a.p.AvgSeek + a.p.Rotation/2
	}
	bw := a.p.ArrayBW()
	if a.degraded {
		// Degraded RAID-3: reconstruct the lost drive's bytes from the
		// survivors plus parity. One extra controller pass per request,
		// and the aggregate rate falls to the surviving data drives
		// (with one data drive the parity drive stands in, so the rate
		// holds).
		d += a.p.Overhead
		if a.p.DataDisks > 1 {
			bw = a.p.DiskBW * float64(a.p.DataDisks-1)
		}
		a.degradedOps++
	}
	d += time.Duration(float64(size) / bw * float64(time.Second))
	if a.slow > 1 {
		d = time.Duration(float64(d) * a.slow)
	}
	a.lastStream = stream
	a.lastEnd = offset + size
	a.requests++
	a.bytesMoved += size
	a.busy += d
	return d
}

// Stats is a snapshot of accumulated array activity.
type Stats struct {
	Requests   uint64
	SeqHits    uint64        // requests priced as sequential continuations
	Degraded   uint64        // requests served in degraded (reconstruction) mode
	BytesMoved int64         // total payload bytes
	Busy       time.Duration // total service time
}

// Stats returns the array's accumulated statistics.
func (a *Array) Stats() Stats {
	return Stats{
		Requests:   a.requests,
		SeqHits:    a.seqHits,
		Degraded:   a.degradedOps,
		BytesMoved: a.bytesMoved,
		Busy:       a.busy,
	}
}
