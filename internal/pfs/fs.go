package pfs

import (
	"fmt"
	"hash/fnv"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/disk"
	"paragonio/internal/faults"
	"paragonio/internal/mesh"
	"paragonio/internal/pablo"
	"paragonio/internal/sim"
)

// DefaultStripeUnit is the PFS default stripe unit (64 KB), the value the
// Caltech machine used for all the paper's experiments.
const DefaultStripeUnit int64 = 64 * 1024

// Config describes a file system instance.
type Config struct {
	StripeUnit int64      // bytes per stripe unit (default 64 KB)
	IONodes    int        // number of I/O nodes (default 16)
	Mesh       *mesh.Mesh // interconnect model (required)
	// Tiers configures the what-if storage hierarchy: Tiers.IONode
	// installs a buffer cache on every I/O node, Tiers.Client a
	// lease-coherent cache on every compute node, and Tiers.Log a
	// per-compute-node log-structured write buffer that drains to the
	// PFS in the background. Every tier defaults to nil — Intel PFS had
	// none of them, so all canonical paper runs leave them off. Zero
	// fields are defaulted at New; see cache.Tiers.WithDefaults.
	Tiers cache.Tiers
	// Faults is the injected fault plan: degraded arrays, node crashes,
	// stragglers, flapping clients, armed as scheduled DES events before
	// the run starts. The zero value is the healthy machine.
	Faults faults.Plan
}

// DefaultConfig returns the paper's machine: 16 I/O nodes and a 64 KB
// stripe unit over the given mesh. Every I/O node's array is
// disk.DefaultParams, and the software costs are the constants in
// costs.go.
func DefaultConfig(m *mesh.Mesh) Config {
	return Config{
		StripeUnit: DefaultStripeUnit,
		IONodes:    16,
		Mesh:       m,
	}
}

// ioNode is one I/O service node: a FIFO server fronting a RAID-3 array,
// optionally through a buffer cache.
type ioNode struct {
	idx   int
	res   *sim.Resource
	park  string // precomputed Suspend reason (avoids a concat per request)
	array *disk.Array
	cache *cache.Cache // nil when caching is disabled
}

// service prices chunk service at the array — or through the cache when
// one is installed. Must run while res is held (process hold or UseFn
// grant), so cache side effects (miss fills, forced flushes) extend the
// current hold exactly like uncached head movement.
func (n *ioNode) service(name string, c chunk, write bool) time.Duration {
	if n.cache != nil {
		return n.cache.Access(name, c.off, c.size, write)
	}
	return n.array.Service(name, c.off, c.size)
}

// file is the server-side state of one PFS file.
type file struct {
	name     string
	size     int64
	base     int           // first stripe's I/O node (round-robin by name hash)
	token    *sim.Resource // atomicity token
	shared   int64         // shared file pointer (M_GLOBAL/M_SYNC/M_LOG)
	mode     Mode          // current file access mode
	recSize  int64         // established M_RECORD record size (0 = unset)
	refcount int
}

// FileSystem simulates one PFS instance. All methods taking a *sim.Proc
// must be called from process context; the simulation kernel's handoff
// protocol makes the file system effectively single-threaded, so no
// internal locking is needed.
type FileSystem struct {
	k      *sim.Kernel
	cfg    Config
	meta   *sim.Resource
	ios    []*ioNode
	client *cache.ClientTier // nil when the client tier is disabled
	log    *cache.LogTier    // nil when the log tier is disabled
	files  map[string]*file
	tracer pablo.Tracer

	// Fault-plane routing state, read in process context (request issue
	// and mesh pricing). dead marks crashed I/O nodes; routeTo walks the
	// ring to the next survivor. meshSlow multiplies mesh transfers
	// addressed to a straggler node (>= 1). Both are mutated only by
	// fault events.
	dead     []bool
	meshSlow []float64
	rerouted uint64 // requests redirected away from a crashed node
}

// New creates a file system on the given kernel. tracer receives one
// event per I/O operation; use pablo.Discard for untraced runs.
func New(k *sim.Kernel, cfg Config, tracer pablo.Tracer) (*FileSystem, error) {
	if cfg.StripeUnit == 0 {
		cfg.StripeUnit = DefaultStripeUnit
	}
	if cfg.StripeUnit < 0 {
		return nil, fmt.Errorf("pfs: negative stripe unit %d", cfg.StripeUnit)
	}
	if cfg.IONodes <= 0 {
		return nil, fmt.Errorf("pfs: need at least one I/O node, got %d", cfg.IONodes)
	}
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("pfs: mesh model is required")
	}
	if err := cfg.Faults.Validate(cfg.IONodes); err != nil {
		return nil, err
	}
	arrays := disk.DefaultParams()
	tiers, err := cfg.Tiers.WithDefaults(cfg.StripeUnit, arrays)
	if err != nil {
		return nil, err
	}
	cfg.Tiers = tiers
	if tracer == nil {
		tracer = pablo.Discard
	}
	fs := &FileSystem{
		k:      k,
		cfg:    cfg,
		meta:   sim.NewResource(k, "pfs-metadata", 1),
		files:  make(map[string]*file),
		tracer: tracer,
	}
	for i := 0; i < cfg.IONodes; i++ {
		n := &ioNode{
			idx:   i,
			res:   sim.NewResource(k, fmt.Sprintf("ionode-%d", i), 1),
			array: disk.MustNewArray(arrays),
		}
		n.park = "pfs: i/o node " + n.res.Name()
		if cfg.Tiers.IONode != nil {
			c, err := cache.New(k, n.res, n.array, *cfg.Tiers.IONode, cfg.StripeUnit)
			if err != nil {
				return nil, err
			}
			n.cache = c
		}
		fs.ios = append(fs.ios, n)
	}
	if cfg.Tiers.Client != nil {
		ct, err := cache.NewClientTier(k, cfg.Mesh, *cfg.Tiers.Client)
		if err != nil {
			return nil, err
		}
		fs.client = ct
	}
	if cfg.Tiers.Log != nil {
		lt, err := cache.NewLogTier(k, *cfg.Tiers.Log)
		if err != nil {
			return nil, err
		}
		lt.SetDrainer(fs.drainLog)
		fs.log = lt
	}
	fs.dead = make([]bool, cfg.IONodes)
	fs.meshSlow = make([]float64, cfg.IONodes)
	for i := range fs.meshSlow {
		fs.meshSlow[i] = 1
	}
	if err := fs.armFaults(); err != nil {
		return nil, err
	}
	return fs, nil
}

// armFaults turns the configured fault plan into scheduled kernel events.
// It runs before any workload process is spawned and walks the plan in
// order, so the events' sequence numbers are allocated identically on
// every run. Fault events mutate state only — they emit no trace events —
// so an empty plan leaves the event stream, and hence the golden digest,
// bit-identical to a healthy run.
func (fs *FileSystem) armFaults() error {
	for _, f := range fs.cfg.Faults.Faults {
		f := f
		switch f.Kind {
		case faults.DiskFail:
			n := fs.ios[f.IONode]
			fs.k.After(sim.Time(f.At), func() { n.array.SetDegraded(true) })
			if f.Until != 0 {
				fs.k.After(sim.Time(f.Until), func() { n.array.SetDegraded(false) })
			}
		case faults.NodeCrash:
			io := f.IONode
			fs.k.After(sim.Time(f.At), func() { fs.dead[io] = true })
			if f.Until != 0 {
				fs.k.After(sim.Time(f.Until), func() { fs.dead[io] = false })
			}
		case faults.Straggler:
			n := fs.ios[f.IONode]
			io, factor := f.IONode, f.Factor
			fs.k.After(sim.Time(f.At), func() { n.array.SetSlow(factor) })
			fs.k.After(sim.Time(f.At), func() { fs.meshSlow[io] = factor })
			if f.Until != 0 {
				fs.k.After(sim.Time(f.Until), func() { n.array.SetSlow(1) })
				fs.k.After(sim.Time(f.Until), func() { fs.meshSlow[io] = 1 })
			}
		case faults.ClientFlap:
			if fs.client == nil {
				return fmt.Errorf("pfs: client-flap fault requires the client cache tier (Tiers.Client)")
			}
			node := f.Node
			for j := 0; j < f.FlapCount(); j++ {
				fs.k.After(sim.Time(f.At)+sim.Time(j)*sim.Time(f.Period), func() { fs.client.Flap(node) })
			}
		}
	}
	return nil
}

// routeTo resolves a logical I/O node to the physical node serving its
// stripes right now: the node itself while alive, else the next survivor
// clockwise on the ring (the failover protocol). Plan validation
// guarantees a survivor exists. Called in process context only.
func (fs *FileSystem) routeTo(io int) int {
	if !fs.dead[io] {
		return io
	}
	fs.rerouted++
	for d := 1; d < len(fs.ios); d++ {
		t := (io + d) % len(fs.ios)
		if !fs.dead[t] {
			return t
		}
	}
	panic("pfs: no surviving I/O node (plan validation should prevent this)")
}

// meshCost prices the payload transfer from a compute node to a physical
// I/O node, stretched by the straggler multiplier when one is active.
// Called in process context only.
func (fs *FileSystem) meshCost(node, io int, bytes int64) time.Duration {
	d := fs.cfg.Mesh.TransferToIONode(node, io, bytes)
	if s := fs.meshSlow[io]; s > 1 {
		d = time.Duration(float64(d) * s)
	}
	return d
}

// Rerouted returns how many requests the failover path redirected away
// from a crashed I/O node.
func (fs *FileSystem) Rerouted() uint64 { return fs.rerouted }

// Config returns the file system's configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Kernel returns the kernel the file system runs on.
func (fs *FileSystem) Kernel() *sim.Kernel { return fs.k }

// CreateFile installs a file of the given size without generating events
// or consuming virtual time — used to preload application input files.
func (fs *FileSystem) CreateFile(name string, size int64) {
	f := fs.lookup(name, true)
	if size > f.size {
		f.size = size
	}
}

// FileSize returns the current size of the named file (0 if absent).
func (fs *FileSystem) FileSize(name string) int64 {
	if f, ok := fs.files[name]; ok {
		return f.size
	}
	return 0
}

// IONodeStats returns per-I/O-node array statistics, indexed by I/O node.
func (fs *FileSystem) IONodeStats() []disk.Stats {
	out := make([]disk.Stats, len(fs.ios))
	for i, io := range fs.ios {
		out[i] = io.array.Stats()
	}
	return out
}

// MetadataStats returns queueing statistics of the metadata service.
func (fs *FileSystem) MetadataStats() sim.ResourceStats { return fs.meta.Stats() }

// CacheStats returns per-I/O-node cache statistics, indexed by I/O node,
// or nil when caching is disabled.
func (fs *FileSystem) CacheStats() []cache.Stats {
	if fs.cfg.Tiers.IONode == nil {
		return nil
	}
	out := make([]cache.Stats, len(fs.ios))
	for i, io := range fs.ios {
		out[i] = io.cache.Stats()
	}
	return out
}

// ClientTier returns the client cache tier, or nil when disabled. Tests
// use it to install the coherence oracle's observer.
func (fs *FileSystem) ClientTier() *cache.ClientTier { return fs.client }

// ClientStats returns the client tier's aggregate statistics (the zero
// value when the tier is disabled).
func (fs *FileSystem) ClientStats() cache.ClientStats {
	if fs.client == nil {
		return cache.ClientStats{}
	}
	return fs.client.Stats()
}

// LogStats returns the log tier's aggregate statistics (the zero value
// when the tier is disabled).
func (fs *FileSystem) LogStats() cache.LogStats {
	if fs.log == nil {
		return cache.LogStats{}
	}
	return fs.log.Stats()
}

// drainLog is the log tier's drain sink: it writes one batch of logged
// records through the regular PFS data path — per-record chunking, mesh
// transfer, FIFO disk service, fault-plane routing (crashed-node
// failover, straggler stretch) — and calls done when the slowest record
// finishes. It runs from the log tier's drain timers.
func (fs *FileSystem) drainLog(batch []cache.LogRecord, done func()) {
	remaining := 0
	for _, r := range batch {
		f := fs.lookup(r.Stream, true)
		lists, ios := fs.chunksByIONode(f, r.Off, r.Size)
		for _, io := range ios {
			remaining++
			fs.serveIONodeFn(r.Node, f, io, lists[io], true, func() {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
	}
	if remaining == 0 {
		done()
	}
}

// lookup returns the file record, creating it if requested.
func (fs *FileSystem) lookup(name string, create bool) *file {
	f, ok := fs.files[name]
	if !ok && create {
		h := fnv.New32a()
		h.Write([]byte(name))
		f = &file{
			name:  name,
			base:  int(h.Sum32()) % len(fs.ios),
			token: sim.NewResource(fs.k, "token:"+name, 1),
		}
		if f.base < 0 {
			f.base += len(fs.ios)
		}
		fs.files[name] = f
	}
	return f
}

// Open performs an individual (non-collective) open of name by node in
// the given mode, creating the file if absent. Each concurrent Open
// serializes through the metadata service — the behavior that dominated
// version A of both applications.
func (fs *FileSystem) Open(p *sim.Proc, node int, name string, mode Mode) (*Handle, error) {
	if mode < 0 || mode >= numModes {
		return nil, fmt.Errorf("pfs: invalid mode %d", int(mode))
	}
	start := fs.k.Now()
	fs.meta.Use(p, costOpen)
	f := fs.lookup(name, true)
	f.mode = mode
	f.refcount++
	fs.trace(node, pablo.OpOpen, name, 0, 0, start, mode)
	return &Handle{fs: fs, f: f, node: node, mode: mode, buffered: true}, nil
}

// trace emits one event ending now.
func (fs *FileSystem) trace(node int, op pablo.Op, name string, off, size int64, start sim.Time, mode Mode) {
	fs.tracer.Record(pablo.Event{
		Node:     int32(node),
		Op:       op,
		File:     name,
		Offset:   off,
		Size:     size,
		Start:    start,
		Duration: fs.k.Now() - start,
		Mode:     mode.traced(),
	})
}

// chunk is a contiguous piece of a request living on one I/O node.
type chunk struct {
	off, size int64
}

// chunksByIONode splits [off, off+size) into per-I/O-node chunk lists,
// returned as a slice indexed by I/O node (nil entries are uninvolved)
// together with the involved I/O nodes in ascending order. Chunks on the
// same I/O node are coalesced per stripe unit but kept in ascending
// offset order (they are contiguous on the array only if the request
// spans a full stripe cycle).
func (fs *FileSystem) chunksByIONode(f *file, off, size int64) ([][]chunk, []int) {
	lists := make([][]chunk, len(fs.ios))
	involved := 0
	u := fs.cfg.StripeUnit
	for size > 0 {
		stripe := off / u
		io := (f.base + int(stripe%int64(len(fs.ios)))) % len(fs.ios)
		inStripe := off % u
		n := u - inStripe
		if n > size {
			n = size
		}
		if lists[io] == nil {
			involved++
		}
		lists[io] = append(lists[io], chunk{off: off, size: n})
		off += n
		size -= n
	}
	ios := make([]int, 0, involved)
	for io, l := range lists {
		if l != nil {
			ios = append(ios, io)
		}
	}
	return lists, ios
}

// xfer performs the data movement of one read or write request: client
// software overhead, network to each involved I/O node, FIFO disk
// service per node, with distinct I/O nodes proceeding in parallel.
// It blocks p until the slowest I/O node finishes.
func (fs *FileSystem) xfer(p *sim.Proc, node int, f *file, off, size int64, write bool) {
	if size <= 0 {
		return
	}
	p.Wait(costRequest)
	u := fs.cfg.StripeUnit
	if off/u == (off+size-1)/u {
		// Single stripe unit → single I/O node, single chunk: skip the
		// per-node grouping entirely (the overwhelmingly common case for
		// the paper's small-request workloads).
		io := (f.base + int((off/u)%int64(len(fs.ios)))) % len(fs.ios)
		fs.serveIONode(p, node, f, io, []chunk{{off: off, size: size}}, write)
		return
	}
	lists, ios := fs.chunksByIONode(f, off, size)
	if len(ios) == 1 {
		fs.serveIONode(p, node, f, ios[0], lists[ios[0]], write)
		return
	}
	// Fan out one callback chain per additional I/O node; the request
	// completes when all involved nodes have served their chunks. The
	// last completion resumes p if it is still waiting.
	pending := len(ios) - 1
	waiting := false
	for _, io := range ios[1:] {
		fs.serveIONodeFn(node, f, io, lists[io], write, func() {
			pending--
			if pending == 0 && waiting {
				fs.k.Wake(p)
			}
		})
	}
	fs.serveIONode(p, node, f, ios[0], lists[ios[0]], write)
	if pending > 0 {
		waiting = true
		p.Suspend("xfer-join")
	}
}

// serveIONode moves one request's chunks through a single I/O node —
// mesh transfer of the payload, then FIFO disk service — blocking p
// until the node finishes. The arrival event and the disk-service hold
// are callback events, and the client suspends until the release
// continuation wakes it inline. Pricing happens at grant time and the
// client continuation nests inside the release event's dispatch
// position, so every (at, seq) allocation — and hence the trace — is
// identical to the former process-shaped Acquire/Wait/Release sequence.
func (fs *FileSystem) serveIONode(p *sim.Proc, node int, f *file, io int, chunks []chunk, write bool) {
	var bytes int64
	for _, c := range chunks {
		bytes += c.size
	}
	io = fs.routeTo(io)
	n := fs.ios[io]
	fs.k.After(fs.meshCost(node, io, bytes), func() {
		n.res.UseFn(func() sim.Time {
			var d time.Duration
			for _, c := range chunks {
				d += n.service(f.name, c, write)
			}
			return d
		}, func() { fs.k.Wake(p) })
	})
	p.Suspend(n.park)
}

// serveIONodeFn is the callback-shaped variant of serveIONode used by the
// striped-transfer fan-out: the same event sequence with no helper
// process, so fan-out requests cost no process spawns and no coroutine
// switches. The initial zero-delay hop mirrors the start event a spawned
// helper process would get, and disk service is priced at grant time
// inside UseFn. The hop is a real event, not a direct call: its sequence
// number is part of every golden trace digest.
func (fs *FileSystem) serveIONodeFn(node int, f *file, io int, chunks []chunk, write bool, then func()) {
	var bytes int64
	for _, c := range chunks {
		bytes += c.size
	}
	io = fs.routeTo(io)
	n := fs.ios[io]
	fs.k.After(0, func() {
		fs.k.After(fs.meshCost(node, io, bytes), func() {
			n.res.UseFn(func() sim.Time {
				var d time.Duration
				for _, c := range chunks {
					d += n.service(f.name, c, write)
				}
				return d
			}, then)
		})
	})
}
