package pfs

import "time"

// The file system model's software-path costs: the calibrated OSF/1 R1.x
// values of the Caltech machine. All calibration of the reproduction
// lives here (and in disk.DefaultParams and mesh.DefaultConfig); values
// are chosen to land the paper's qualitative shapes (see DESIGN.md
// section 3) with plausible mid-90s magnitudes, and docs/CALIBRATION.md
// documents the fit. Re-fitting means editing a constant.
const (
	// Metadata service times (served FIFO by the single metadata
	// manager, so concurrent opens from many nodes serialize — the
	// mechanism behind the huge open shares in ESCAT/PRISM version A).
	// PFS opens touched every I/O node and the OSF/1 name server;
	// measured opens on the Caltech machine ran hundreds of milliseconds
	// before queueing.
	costOpen  = 500 * time.Millisecond // one individual open
	costGopen = 60 * time.Millisecond  // one collective open (paid once per group)
	costClose = 6 * time.Millisecond   // one close (asynchronous: no metadata queueing)
	// costSetIOMode is the per-I/O-node cost of a mode change: the call
	// renegotiates striping/pointer state with every I/O node, so one
	// setiomode costs costSetIOMode x IONodes at the metadata service.
	costSetIOMode = 70 * time.Millisecond

	// Pointer/seek service. M_UNIX-family seeks update shared EOF/
	// atomicity bookkeeping on the file's token server; M_ASYNC and
	// M_RECORD seeks touch only client state.
	costSeekShared = 8 * time.Millisecond
	costSeekLocal  = 8 * time.Microsecond

	// costToken is the per-operation cost of acquiring/releasing the
	// atomicity token in modes that preserve atomicity.
	costToken = 5 * time.Millisecond

	// costRequest is the client-library software overhead per data
	// request (in addition to mesh transfer and disk service).
	costRequest = 250 * time.Microsecond

	// costBufferHit is the fixed cost of a hit in the client read buffer
	// (the "system I/O buffering" PRISM's developer disabled in
	// version C).
	costBufferHit = 40 * time.Microsecond
)

// bufferCopyBW is the client read buffer's memory copy rate in
// bytes/second.
const bufferCopyBW float64 = 25e6
