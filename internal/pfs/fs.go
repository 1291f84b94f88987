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

// DefaultIONodes is the paper machine's I/O node count.
const DefaultIONodes = 16

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
		IONodes:    DefaultIONodes,
		Mesh:       m,
	}
}

// ioNode is one I/O service node: a FIFO server fronting a RAID-3 array,
// optionally through a buffer cache.
type ioNode struct {
	idx   int
	res   *sim.Resource
	array *disk.Array
	cache *cache.Cache // nil when caching is disabled
}

// service prices chunk service at the array — or through the cache when
// one is installed. Must run while res is held (process hold or UseFn
// grant), so cache side effects (miss fills, forced flushes) extend the
// current hold exactly like uncached head movement.
func (n *ioNode) service(id int32, c chunk, write bool) time.Duration {
	if n.cache != nil {
		return n.cache.Access(id, c.off, c.size, write)
	}
	return n.array.Service(id, c.off, c.size)
}

// file is the server-side state of one PFS file.
type file struct {
	name    string
	id      int32 // dense, in creation order: the stream every tier and array keys by
	size    int64
	base    int           // first stripe's I/O node (round-robin by name hash)
	token   *sim.Resource // atomicity token
	shared  int64         // shared file pointer (M_GLOBAL/M_SYNC/M_LOG)
	mode    Mode          // current file access mode
	recSize int64         // established M_RECORD record size (0 = unset)
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
	byID   []*file // files by id
	tracer pablo.Tracer

	// Fault-plane routing state, read in process context (request issue
	// and mesh pricing). dead marks crashed I/O nodes; routeTo walks the
	// ring to the next survivor. meshSlow multiplies mesh transfers
	// addressed to a straggler node (>= 1). Both are mutated only by
	// fault events.
	dead     []bool
	meshSlow []float64
	rerouted uint64 // requests redirected away from a crashed node

	// Recycled data-path records and the splitter's scratch (request.go).
	freeReqs  *request
	freeJoins *join
	byIONode  []*request // splitter scratch, indexed by logical I/O node
	involved  []*request // splitter output, ascending by I/O node
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
	fs.byIONode = make([]*request, cfg.IONodes)
	fs.involved = make([]*request, 0, cfg.IONodes)
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

// lookup returns the file record, creating it with the next id if
// requested.
func (fs *FileSystem) lookup(name string, create bool) *file {
	f, ok := fs.files[name]
	if !ok && create {
		h := fnv.New32a()
		h.Write([]byte(name))
		f = &file{
			name:  name,
			id:    int32(len(fs.byID)),
			base:  int(h.Sum32()) % len(fs.ios),
			token: sim.NewResource(fs.k, "token:"+name, 1),
		}
		if f.base < 0 {
			f.base += len(fs.ios)
		}
		fs.files[name] = f
		fs.byID = append(fs.byID, f)
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
	fs.trace(node, pablo.OpOpen, name, 0, 0, start, mode)
	return &Handle{fs: fs, f: f, node: node, buffered: true}, nil
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
