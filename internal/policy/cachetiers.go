package policy

// Cache-tier advice: the second half of the advisor. Advise maps access
// patterns to access modes (the paper's section 7 list); AdviseTiers
// maps the block-granular reuse signals (SignalBlock) to per-file
// findings and one concrete cache.Tiers configuration — write-behind,
// read-ahead depth, I/O-node capacity, client tier and lease TTL —
// including the negative calls: the PRISM restart stream where read-ahead pollutes a
// dirty-block-resident hot set, and the carbon-monoxide shape where a
// shared I/O-node cache loses outright and only a client tier wins.

import (
	"fmt"
	"sort"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/faults"
)

// CacheOptions describes the machine the cache advice is for.
type CacheOptions struct {
	// IONodes is how many I/O nodes share the server tier; recommended
	// capacity is per I/O node (default 16, the paper's machine).
	IONodes int
	// Faults is the fault plan the advised machine will run under; the
	// advisor trims its recommendation for a machine it knows will
	// degrade (see AdviseTiers). Empty means a healthy machine.
	Faults faults.Plan
}

func (o *CacheOptions) defaults() {
	if o.IONodes == 0 {
		o.IONodes = 16
	}
}

// The recommended capacities are clamped to the sweep ranges the
// experiments measure: 4-32 MB per I/O node (cachewhatif) and 1-16 MB
// per client (clientcache).
const (
	ionodeFloor, ionodeCeil int64 = 4 << 20, 32 << 20
	clientFloor, clientCeil int64 = 1 << 20, 16 << 20
)

// readAheadDepth is the depth recommended when prefetch pays: 4 blocks,
// the cachewhatif depth.
const readAheadDepth = 4

// cacheSignals is one file's trigger evaluation: AdviseTiers renders
// the file's findings from it and merges it into the machine plan.
type cacheSignals struct {
	writeBehind bool // writes worth absorbing in an I/O-node cache
	rewrites    bool // ... because the file rewrites its working set
	capacity    bool // cross-node shared hot set worth holding server-side
	readAhead   bool // cold private sequential stream worth prefetching
	avoidRA     bool // read-ahead would pollute a resident set
	rawHeavy    bool // ... because reads land on just-written blocks
	client      bool // per-node private reuse worth a client tier
	ttl         time.Duration
	logTier     bool // write-dominated burst stream worth a host-side log
	avoidLog    bool // read-back would stall on the drain; keep the log off
}

// minLogBytes is the smallest written volume worth a host-side log: a
// stream below it fits in a single drain batch anyway, so the tier's
// append machinery buys nothing.
const minLogBytes = 4 << 20

func evalCacheSignals(p *Profile) cacheSignals {
	var s cacheSignals
	if p.Writes >= minOps {
		s.rewrites = p.WriteWS > 0 && p.BytesWritten >= 2*p.WriteWS
		s.writeBehind = p.SmallWriteFrac >= 0.8 || s.rewrites
	}
	if p.Reads >= minOps {
		s.capacity = p.SharedReadFrac >= 0.5 && p.ReadOpsPerBlock >= 2
		s.rawHeavy = p.ReadAfterWriteFrac >= 0.5
		s.avoidRA = s.capacity || s.rawHeavy
		s.client = p.ReuseReadFrac >= 0.25 && p.SharedReadFrac < 0.5 &&
			p.PerNodeReadWS > 0
		s.readAhead = !s.avoidRA && !s.client &&
			p.SeqReadFrac >= 0.7 && p.SharedReadFrac < 0.5 &&
			p.ReuseReadFrac < 0.25 && p.ReadOpsPerBlock <= 2
		if s.client {
			s.ttl = leaseTTLFor(p)
		}
	}
	if p.Writes >= minOps && p.BytesWritten >= minLogBytes {
		// The log tier wants pure write bursts: enough volume to matter,
		// write time dominating, and (the hard requirement) no read-back
		// — every read overlapping an undrained record stalls on the
		// drain, so RAW streams belong to the block cache instead.
		if p.ReadAfterWriteFrac >= 0.5 && p.Reads >= minOps {
			s.avoidLog = true
		} else if p.ReadAfterWriteFrac < 0.25 && p.WriteTime >= 2*p.ReadTime {
			s.logTier = true
		}
	}
	return s
}

// leaseTTLFor sizes a client lease for a profile's observed reuse: the
// tier never renews a lease locally, so it must cover the whole span
// from first touch to last return, with one more gap as margin, rounded
// up to a whole minute.
func leaseTTLFor(p *Profile) time.Duration {
	need := p.MaxReuseSpan + p.MaxReuseGap
	if need <= 0 {
		return 0
	}
	return ((need + time.Minute - 1) / time.Minute) * time.Minute
}

// appendCacheFindings appends the cache-tier findings s signals for p's
// file to recs, in kind order, and returns the extended slice.
func appendCacheFindings(recs []Recommendation, p *Profile, s cacheSignals) []Recommendation {
	add := func(k Kind, reason string) {
		recs = append(recs, Recommendation{File: p.File, Kind: k, Reason: reason})
	}
	if s.writeBehind {
		reason := fmt.Sprintf(
			"%.0f%% of writes below 4 KB; write-behind acknowledges them at memory-copy cost",
			100*p.SmallWriteFrac)
		if !(p.SmallWriteFrac >= 0.8) {
			reason = fmt.Sprintf(
				"file rewrites its %s working set %.1f times over; write-behind absorbs the rewrites in cache",
				cache.FormatSize(p.WriteWS), float64(p.BytesWritten)/float64(p.WriteWS))
		}
		add(CacheWriteBehind, reason)
	}
	if s.capacity {
		add(CacheIONodeCapacity, fmt.Sprintf(
			"%.1f reads per distinct block, %.0f%% of touches on cross-node shared blocks; hold the %s hot set at the I/O nodes",
			p.ReadOpsPerBlock, 100*p.SharedReadFrac, cache.FormatSize(p.ReadWS)))
	}
	if s.avoidRA {
		reason := "the read stream is served from a resident shared hot set; speculative fills would only evict it"
		if s.rawHeavy {
			reason = fmt.Sprintf(
				"%.0f%% of read touches land on blocks this run wrote; with write-behind they are already resident and read-ahead only evicts them",
				100*p.ReadAfterWriteFrac)
		}
		add(AvoidReadAhead, reason)
	}
	if s.readAhead {
		add(CacheReadAhead, fmt.Sprintf(
			"%.0f%% sequential cold reads with no reuse behind them; read-ahead depth %d overlaps the disks with the stream",
			100*p.SeqReadFrac, readAheadDepth))
	}
	if s.client {
		add(CacheClientTier, fmt.Sprintf(
			"%.0f%% of read touches return to node-private blocks (%s per node); a client tier serves them without any I/O-node trip",
			100*p.ReuseReadFrac, cache.FormatSize(p.PerNodeReadWS)))
		if s.ttl > cache.DefaultClientTTL {
			add(CacheClientTTL, fmt.Sprintf(
				"reuse spans %s per block and leases never renew locally; a %v lease keeps every return a hit",
				p.MaxReuseSpan.Round(time.Second), s.ttl))
		}
		add(AvoidIONodeCache, fmt.Sprintf(
			"reads are node-private (%.0f%% shared); a server-side cache adds lookup cost with nothing to share",
			100*p.SharedReadFrac))
	}
	if s.logTier {
		add(CacheLogTier, fmt.Sprintf(
			"%s written with %.0f%% read-back; a host-side log absorbs the bursts at memory speed and drains sequentially",
			cache.FormatSize(p.BytesWritten), 100*p.ReadAfterWriteFrac))
	}
	if s.avoidLog {
		add(AvoidLogTier, fmt.Sprintf(
			"%.0f%% of read touches land on just-written blocks; logged records would stall every such read on the drain, while write-behind serves them from resident dirty blocks",
			100*p.ReadAfterWriteFrac))
	}
	return recs
}

// TiersPlan is AdviseTiers' result: the per-file findings plus the one
// merged cache.Tiers the advisor would actually configure.
type TiersPlan struct {
	// Recs are the per-file cache findings, sorted by file then kind.
	Recs []Recommendation
	// Tiers is the merged machine configuration. The zero value (both
	// tiers nil) means "leave caching off" — itself a finding, and the
	// honest call for the carbon-monoxide I/O-node case.
	Tiers cache.Tiers
	// Notes records the merge rationale the per-file findings cannot
	// carry: which negative findings won and why, in input order.
	Notes []string
}

// AdviseTiers evaluates each profile's cache signals once, renders the
// file's findings from them, and merges them into one cache.Tiers for
// the whole machine. Files pull in different directions, so the merge
// weighs each finding by the time the file spent in the operations it
// would accelerate (or slow down): the I/O-node tier is enabled only when the read/write time behind the
// positive findings exceeds the read time of files that a shared cache
// would penalize, and one AvoidReadAhead finding vetoes read-ahead for
// the whole tier — prefetch pollution costs more than a cold stream
// gains (the PRISM restart lesson).
func AdviseTiers(profiles map[string]*Profile, opt CacheOptions) TiersPlan {
	opt.defaults()
	var plan TiersPlan

	files := make([]string, 0, len(profiles))
	for f := range profiles {
		files = append(files, f)
	}
	sort.Strings(files)

	var (
		pro, anti    time.Duration // I/O-node tier: for and against
		wbOn, capOn  bool
		raOn, raVeto bool
		clientOn     bool
		ionodeWS     int64 // working set the I/O-node tier must hold
		clientWS     int64 // summed per-node client working sets
		clientTTL    time.Duration
		antiFile     string // heaviest file arguing against the tier
		antiFileCost time.Duration
		logOn        bool
		logVeto      bool
		logWS        int64  // summed write working sets behind the log
		logVetoFile  string // heaviest RAW file vetoing the log tier
		logVetoCost  time.Duration
	)
	for _, f := range files {
		p := profiles[f]
		s := evalCacheSignals(p)
		plan.Recs = appendCacheFindings(plan.Recs, p, s)
		if s.writeBehind {
			wbOn = true
			pro += p.WriteTime
			ionodeWS += p.WriteWS
		}
		if s.capacity {
			capOn = true
			pro += p.ReadTime
			ionodeWS += p.ReadWS
		}
		if s.readAhead {
			raOn = true
			pro += p.ReadTime
		}
		if s.avoidRA {
			raVeto = true
		}
		if s.client {
			clientOn = true
			anti += p.ReadTime
			if p.ReadTime > antiFileCost {
				antiFileCost, antiFile = p.ReadTime, f
			}
			clientWS += p.PerNodeReadWS
			if s.ttl > clientTTL {
				clientTTL = s.ttl
			}
		}
		if s.logTier {
			logOn = true
			logWS += p.WriteWS
		}
		if s.avoidLog {
			logVeto = true
			logWS += p.WriteWS
			if p.ReadTime > logVetoCost {
				logVetoCost, logVetoFile = p.ReadTime, f
			}
		}
	}

	if wbOn || capOn || raOn {
		if pro > anti {
			cfg := &cache.Config{
				WriteBehind:   wbOn,
				CapacityBytes: clampPow2(2*ionodeWS/int64(opt.IONodes), ionodeFloor, ionodeCeil),
			}
			if raOn && !raVeto {
				cfg.ReadAhead = readAheadDepth
			}
			plan.Tiers.IONode = cfg
			if raVeto {
				plan.Notes = append(plan.Notes,
					"read-ahead held at 0: staged or shared blocks are already resident, and speculative fills would evict them (the PRISM restart case)")
			}
		} else {
			plan.Notes = append(plan.Notes, fmt.Sprintf(
				"I/O-node tier left off: %v of node-private reads (heaviest: %s) outweigh %v of cacheable traffic (the carbon-monoxide case)",
				anti.Round(time.Second), antiFile, pro.Round(time.Second)))
		}
	}
	if clientOn {
		cc := &cache.ClientConfig{
			CapacityBytes: clampPow2(2*clientWS, clientFloor, clientCeil),
			LeaseTTL:      clientTTL,
		}
		plan.Tiers.Client = cc
	}
	if logOn || logVeto {
		// RAW read-back vetoes the log tier only on a machine without a
		// write-behind block cache: log-only forces every read-back to
		// the disks (or onto the drain barrier), while drains through a
		// write-behind tier leave the blocks resident — read-back then
		// costs the same as write-behind alone and appends still skip
		// the mesh round trip entirely.
		wb := plan.Tiers.IONode != nil && plan.Tiers.IONode.WriteBehind
		if logVeto && !wb {
			plan.Notes = append(plan.Notes, fmt.Sprintf(
				"log tier left off: %s reads back what it writes (%v of reads) and no block cache would hold the drained blocks, so every read-back pays disk or drain-barrier cost (the RAW-resident restart case)",
				logVetoFile, logVetoCost.Round(time.Second)))
		} else {
			plan.Tiers.Log = &cache.LogConfig{
				CapacityBytes: clampPow2(logWS, cache.DefaultLogCapacity, 64<<20),
			}
			if logVeto {
				plan.Notes = append(plan.Notes, fmt.Sprintf(
					"log tier enabled alongside write-behind: %s reads back what it writes, but drains land in the block cache so read-back stays resident while appends bypass the mesh",
					logVetoFile))
			}
		}
	}
	adviseFaults(&plan, opt)
	return plan
}

// faultRiskFlushDeadline bounds write-behind exposure on a machine that
// is scheduled to degrade: every acknowledged dirty block must reach
// the array within this window.
const faultRiskFlushDeadline = 50 * time.Millisecond

// adviseFaults trims the merged configuration for the fault plan the
// machine will run under (CacheOptions.Faults). Two adjustments, both
// defensive: with an array-side fault scheduled (disk-fail, node-crash,
// or straggler), write-behind still acknowledges at memory-copy cost
// but each acknowledged dirty block sits exposed in volatile cache
// while the array it must reach is broken or slow — the advisor bounds
// the exposure by switching the flusher to a short deadline. With a
// client-flap scheduled, leases are recalled wholesale mid-run, so the
// advisor caps the lease TTL at the default rather than sizing it to
// reuse spans the storm severs anyway.
func adviseFaults(plan *TiersPlan, opt CacheOptions) {
	if opt.Faults.Empty() {
		return
	}
	var arraySide, flap bool
	for _, f := range opt.Faults.Faults {
		switch f.Kind {
		case faults.DiskFail, faults.NodeCrash, faults.Straggler:
			arraySide = true
		case faults.ClientFlap:
			flap = true
		}
	}
	if arraySide && plan.Tiers.IONode != nil && plan.Tiers.IONode.WriteBehind &&
		(plan.Tiers.IONode.FlushDeadline == 0 || plan.Tiers.IONode.FlushDeadline > faultRiskFlushDeadline) {
		plan.Tiers.IONode.FlushDeadline = faultRiskFlushDeadline
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"flush deadline tightened to %v: the fault plan degrades the array, and every write-behind-acknowledged dirty block is exposure until it reaches the disks",
			faultRiskFlushDeadline))
	}
	if arraySide && plan.Tiers.Log != nil &&
		(plan.Tiers.Log.DrainDeadline == 0 || plan.Tiers.Log.DrainDeadline > faultRiskFlushDeadline) {
		// The log tier's default drain deadline already equals the
		// fault-risk bound, but an explicit value pins the exposure
		// argument in the plan (and survives future default changes).
		plan.Tiers.Log.DrainDeadline = faultRiskFlushDeadline
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"log drain deadline pinned at %v: the fault plan degrades the array, and every logged record is exposure until the drain lands it",
			faultRiskFlushDeadline))
	}
	if flap && plan.Tiers.Client != nil && plan.Tiers.Client.LeaseTTL > cache.DefaultClientTTL {
		plan.Tiers.Client.LeaseTTL = cache.DefaultClientTTL
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"client lease TTL capped at %v: the fault plan flaps a client, and long leases only widen each recall storm",
			cache.DefaultClientTTL))
	}
}

// clampPow2 rounds n up to a power of two and clamps it to [lo, hi]
// (lo and hi are assumed to be powers of two themselves).
func clampPow2(n, lo, hi int64) int64 {
	p := lo
	for p < n && p < hi {
		p <<= 1
	}
	return p
}
