package policy

import (
	"fmt"
	"sort"
)

// Kind identifies one recommendation category — each maps to a file
// system feature the paper's section 7 calls for.
type Kind int

const (
	// UseGlobalRead: all nodes read the same data; one disk I/O plus a
	// broadcast (M_GLOBAL, or node-zero read + application broadcast)
	// replaces N serialized reads.
	UseGlobalRead Kind = iota
	// UseGopen: many concurrent individual opens; a collective open
	// pays the metadata cost once.
	UseGopen
	// UseAsyncWrites: disjoint concurrent writes serialized by UNIX
	// atomicity; M_ASYNC removes the token and shared-seek costs.
	UseAsyncWrites
	// UseRecordReads: fixed-size disjoint strided reads; M_RECORD in
	// stripe-multiple records achieves full striping bandwidth.
	UseRecordReads
	// AggregateRequests: many small requests; client- or library-side
	// aggregation into stripe-sized requests recovers disk bandwidth.
	AggregateRequests
	// EnablePrefetch: small sequential reads with buffering disabled or
	// missing; read-ahead turns them into memory copies.
	EnablePrefetch
	// UseWriteBehind: many small writes on the critical path; deferred
	// flushing overlaps them with computation.
	UseWriteBehind
	// AlignToStripe: dominant request size is not a stripe multiple.
	AlignToStripe

	// The remaining kinds are cache-tier findings (AdviseTiers): instead
	// of an access mode, each argues for or against one cache.Tiers
	// setting, which AdviseTiers merges into the machine plan.

	// CacheWriteBehind: writes are small or rewrite the same blocks; an
	// I/O-node cache with write-behind acknowledges them at copy cost.
	CacheWriteBehind
	// CacheReadAhead: a cold sequential read stream with no sharing,
	// reuse, or staged writes behind it; read-ahead depth N overlaps the
	// disk with the request stream.
	CacheReadAhead
	// AvoidReadAhead: read-ahead would pollute this file's cache — the
	// read stream is already served by resident blocks (dirty staging
	// data or a hot shared set), so speculative fills only evict them.
	AvoidReadAhead
	// CacheIONodeCapacity: cross-node re-reads of a hot block set; an
	// I/O-node cache sized to the shared working set serves them at
	// memory cost.
	CacheIONodeCapacity
	// CacheClientTier: per-node private temporal reuse; a client-side
	// cache sized to the per-node working set serves it without any
	// I/O-node round trip.
	CacheClientTier
	// CacheClientTTL: the client tier only pays off if leases outlive
	// the observed reuse span (there is no local renewal); recommends a
	// lease TTL covering it.
	CacheClientTTL
	// AvoidIONodeCache: this file's reads are per-node private — a
	// shared I/O-node cache adds lookup cost with no sharing to exploit
	// (the carbon-monoxide case where no server-side cache wins).
	AvoidIONodeCache
	// CacheLogTier: a write-dominated stream with no read-back; a
	// host-side log absorbs the bursts at memory speed and drains
	// sequentially in the background.
	CacheLogTier
	// AvoidLogTier: the stream reads back what it just wrote; logged
	// records force every such read to wait out the drain, while a
	// write-behind block cache serves them from resident dirty blocks —
	// the RAW-resident restart case where the log tier loses.
	AvoidLogTier
)

var kindNames = map[Kind]string{
	UseGlobalRead:     "use-global-read",
	UseGopen:          "use-gopen",
	UseAsyncWrites:    "use-async-writes",
	UseRecordReads:    "use-record-reads",
	AggregateRequests: "aggregate-requests",
	EnablePrefetch:    "enable-prefetch",
	UseWriteBehind:    "use-write-behind",
	AlignToStripe:     "align-to-stripe",

	CacheWriteBehind:    "cache-write-behind",
	CacheReadAhead:      "cache-read-ahead",
	AvoidReadAhead:      "avoid-read-ahead",
	CacheIONodeCapacity: "cache-ionode-capacity",
	CacheClientTier:     "cache-client-tier",
	CacheClientTTL:      "cache-client-ttl",
	AvoidIONodeCache:    "avoid-ionode-cache",
	CacheLogTier:        "cache-log-tier",
	AvoidLogTier:        "avoid-log-tier",
}

// String returns the recommendation's slug.
func (k Kind) String() string { return kindNames[k] }

// Recommendation is one advisor finding for one file.
type Recommendation struct {
	File   string
	Kind   Kind
	Reason string
}

// String implements fmt.Stringer.
func (r Recommendation) String() string {
	return fmt.Sprintf("%s: %s (%s)", r.File, r.Kind, r.Reason)
}

// Options describes the machine the advice is for.
type Options struct {
	StripeUnit int64 // for alignment advice (default 64 KB, the paper machine's)
}

func (o *Options) defaults() {
	if o.StripeUnit == 0 {
		o.StripeUnit = 64 * 1024
	}
}

// smallThreshold is the small-request fraction that triggers
// aggregation, prefetch or write-behind advice.
const smallThreshold = 0.8

// minOps is the operation count below which a file is ignored, by this
// advisor (reads plus writes) and by the cache advisor (reads or writes
// alone): too few requests to show a pattern.
const minOps = 8

// Advise inspects one file's profile and returns recommendations.
func Advise(p *Profile, opt Options) []Recommendation {
	opt.defaults()
	var out []Recommendation
	add := func(k Kind, reason string) {
		out = append(out, Recommendation{File: p.File, Kind: k, Reason: reason})
	}
	if p.Reads+p.Writes < minOps {
		return nil
	}

	concurrentReaders := len(p.Readers) > 1
	concurrentWriters := len(p.Writers) > 1

	if p.IdenticalReads && p.UnixReads {
		add(UseGlobalRead, fmt.Sprintf(
			"%d nodes read identical data through M_UNIX; one I/O plus broadcast suffices",
			len(p.Readers)))
	}
	if p.Opens > 2*max(1, len(p.Readers)+len(p.Writers)) ||
		(p.Opens >= 8 && (concurrentReaders || concurrentWriters) && p.Gopens == 0) {
		add(UseGopen, fmt.Sprintf("%d individual opens; a collective gopen pays the metadata cost once", p.Opens))
	}
	if p.InterleavedWrites && p.UnixWrites {
		reason := "concurrent disjoint interleaved writes serialized by M_UNIX atomicity"
		if p.SeeksPerWrite >= 1 {
			reason += fmt.Sprintf(" with %.1f shared-state seeks per write", p.SeeksPerWrite)
		}
		add(UseAsyncWrites, reason)
	}
	if p.FixedReadSize > 0 && concurrentReaders && !p.IdenticalReads {
		k := UseRecordReads
		reason := fmt.Sprintf("nodes read disjoint fixed-size %d-byte requests", p.FixedReadSize)
		add(k, reason)
		if p.FixedReadSize%opt.StripeUnit != 0 {
			add(AlignToStripe, fmt.Sprintf(
				"record size %d is not a multiple of the %d-byte stripe unit",
				p.FixedReadSize, opt.StripeUnit))
		}
	}
	if p.Reads >= minOps && p.SmallReadFrac >= smallThreshold {
		if p.SeqReadFrac >= 0.7 {
			add(EnablePrefetch, fmt.Sprintf(
				"%.0f%% of reads are small and %.0f%% sequential; read-ahead turns them into copies",
				100*p.SmallReadFrac, 100*p.SeqReadFrac))
		} else {
			add(AggregateRequests, fmt.Sprintf(
				"%.0f%% of reads below 2 KB; aggregation into stripe-sized requests recovers bandwidth",
				100*p.SmallReadFrac))
		}
	}
	if p.Writes >= minOps && p.SmallWriteFrac >= smallThreshold {
		add(UseWriteBehind, fmt.Sprintf(
			"%.0f%% of writes below 4 KB on the critical path; write-behind overlaps them with computation",
			100*p.SmallWriteFrac))
	}
	return out
}

// AdviseAll classifies the trace's files and returns all recommendations,
// sorted by file then kind.
func AdviseAll(profiles map[string]*Profile, opt Options) []Recommendation {
	var out []Recommendation
	files := make([]string, 0, len(profiles))
	for f := range profiles {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		out = append(out, Advise(profiles[f], opt)...)
	}
	return out
}
