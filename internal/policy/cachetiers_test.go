package policy

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/faults"
	"paragonio/internal/pablo"
)

func at(ev pablo.Event, start time.Duration) pablo.Event {
	ev.Start = start
	return ev
}

// cacheRecs returns the cache findings AdviseTiers renders for p alone.
func cacheRecs(p *Profile) []Recommendation {
	return AdviseTiers(map[string]*Profile{p.File: p}, CacheOptions{}).Recs
}

// TestAdviseEmptyProfile: a profile with no operations produces no
// advice of either kind, and an empty trace produces an empty plan.
func TestAdviseEmptyProfile(t *testing.T) {
	p := &Profile{File: "x"}
	if recs := Advise(p, Options{}); recs != nil {
		t.Fatalf("mode advice on empty profile: %v", recs)
	}
	if recs := cacheRecs(p); len(recs) != 0 {
		t.Fatalf("cache advice on empty profile: %v", recs)
	}
	plan := AdviseTiers(map[string]*Profile{}, CacheOptions{})
	if len(plan.Recs) != 0 || len(plan.Notes) != 0 || plan.Tiers.Enabled() {
		t.Fatalf("non-empty plan from no profiles: %+v", plan)
	}
}

// TestAdviseSingleRequestFile: one operation is below minOps
// threshold — the advisor must stay quiet rather than extrapolate.
func TestAdviseSingleRequestFile(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkRead(0, "once", 0, 100, pablo.ModeUnix))
	p := Classify(tr)["once"]
	if p == nil || p.Reads != 1 {
		t.Fatalf("profile = %+v", p)
	}
	if recs := Advise(p, Options{}); recs != nil {
		t.Fatalf("mode advice on single request: %v", recs)
	}
	if recs := cacheRecs(p); len(recs) != 0 {
		t.Fatalf("cache advice on single request: %v", recs)
	}
}

// TestAdviseConflictingSmallWrites: a stream of small sequential writes
// qualifies for both request aggregation and write-behind. The mode
// advisor resolves the conflict in favor of write-behind (aggregation
// triggers on reads only), and the cache advisor agrees.
func TestAdviseConflictingSmallWrites(t *testing.T) {
	tr := pablo.NewTrace()
	off := int64(0)
	for i := 0; i < 10; i++ {
		tr.Record(mkWrite(0, "log", off, 2048, pablo.ModeUnix))
		off += 2048
	}
	p := Classify(tr)["log"]
	recs := Advise(p, Options{})
	kinds := map[Kind]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds[UseWriteBehind] != 1 {
		t.Fatalf("want exactly one use-write-behind, got %v", recs)
	}
	if kinds[AggregateRequests] != 0 {
		t.Fatalf("aggregation recommended for a write stream: %v", recs)
	}
	plan := AdviseTiers(map[string]*Profile{"log": p}, CacheOptions{})
	if len(plan.Recs) != 1 || plan.Recs[0].Kind != CacheWriteBehind {
		t.Fatalf("cache advice = %v, want one cache-write-behind", plan.Recs)
	}
	if plan.Tiers.IONode == nil || !plan.Tiers.IONode.WriteBehind {
		t.Fatalf("merged tiers = %v, want write-behind on", plan.Tiers)
	}
}

// TestAdviseRewriteVetoesReadAhead: a file whose working set is
// rewritten and then re-read is the PRISM staging shape — write-behind
// pays, but read-ahead on the re-read stream would only evict the
// resident dirty blocks. The conflict must resolve to wb=on, ra=off.
func TestAdviseRewriteVetoesReadAhead(t *testing.T) {
	tr := pablo.NewTrace()
	// Node 0 writes ten 64 KB blocks twice over (rewrite trigger), then
	// node 1 reads them back sequentially (cold, sequential — the
	// read-ahead trigger shape, except the blocks are freshly written).
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < 10; i++ {
			tr.Record(mkWrite(0, "stage", i*SignalBlock, SignalBlock, pablo.ModeAsync))
		}
	}
	for i := int64(0); i < 10; i++ {
		tr.Record(mkRead(1, "stage", i*SignalBlock, SignalBlock, pablo.ModeAsync))
	}
	p := Classify(tr)["stage"]
	if p.ReadAfterWriteFrac < 0.99 {
		t.Fatalf("ReadAfterWriteFrac = %g, want ~1", p.ReadAfterWriteFrac)
	}
	crecs := cacheRecs(p)
	kinds := map[Kind]int{}
	for _, r := range crecs {
		kinds[r.Kind]++
	}
	if kinds[CacheWriteBehind] != 1 || kinds[AvoidReadAhead] != 1 {
		t.Fatalf("want write-behind + avoid-read-ahead, got %v", crecs)
	}
	if kinds[CacheReadAhead] != 0 {
		t.Fatalf("read-ahead recommended over a freshly written stream: %v", crecs)
	}
	plan := AdviseTiers(map[string]*Profile{"stage": p}, CacheOptions{})
	ion := plan.Tiers.IONode
	if ion == nil || !ion.WriteBehind || ion.ReadAhead != 0 {
		t.Fatalf("merged tiers = %v, want wb=on ra=off", plan.Tiers)
	}
}

// TestAdviseClientTierFromReuse: per-node private returns to a block
// set recommend the client tier (with a TTL covering the whole reuse
// span — leases never renew locally) and argue against the I/O-node
// tier, which must stay off when nothing else wants it.
func TestAdviseClientTierFromReuse(t *testing.T) {
	tr := pablo.NewTrace()
	// Node 0 sweeps four blocks, computes for five minutes, sweeps again.
	for pass := 0; pass < 2; pass++ {
		base := time.Duration(pass) * 5 * time.Minute
		for i := int64(0); i < 4; i++ {
			tr.Record(at(mkRead(0, "quad", i*SignalBlock, SignalBlock, pablo.ModeRecord),
				base+time.Duration(i)*time.Second))
		}
	}
	p := Classify(tr)["quad"]
	if p.ReuseReadFrac < 0.25 || p.SharedReadFrac != 0 {
		t.Fatalf("reuse=%g shared=%g", p.ReuseReadFrac, p.SharedReadFrac)
	}
	if p.MaxReuseSpan < p.MaxReuseGap || p.MaxReuseSpan < 5*time.Minute {
		t.Fatalf("span=%v gap=%v", p.MaxReuseSpan, p.MaxReuseGap)
	}
	crecs := cacheRecs(p)
	kinds := map[Kind]int{}
	for _, r := range crecs {
		kinds[r.Kind]++
	}
	for _, k := range []Kind{CacheClientTier, CacheClientTTL, AvoidIONodeCache} {
		if kinds[k] != 1 {
			t.Fatalf("missing %v in %v", k, crecs)
		}
	}
	plan := AdviseTiers(map[string]*Profile{"quad": p}, CacheOptions{})
	if plan.Tiers.IONode != nil {
		t.Fatalf("I/O-node tier configured for node-private reuse: %v", plan.Tiers)
	}
	cl := plan.Tiers.Client
	if cl == nil {
		t.Fatalf("no client tier in %v", plan.Tiers)
	}
	if cl.LeaseTTL < p.MaxReuseSpan {
		t.Fatalf("lease %v does not cover the %v reuse span", cl.LeaseTTL, p.MaxReuseSpan)
	}
	if cl.CapacityBytes&(cl.CapacityBytes-1) != 0 || cl.CapacityBytes < 2*p.PerNodeReadWS {
		t.Fatalf("capacity %d not a power of two covering 2x%d", cl.CapacityBytes, p.PerNodeReadWS)
	}
}

// TestAdviseTiersDeterministicOrdering: recommendations come out sorted
// by file, and repeated calls over the same map produce identical
// output (map iteration order must not leak through).
func TestAdviseTiersDeterministicOrdering(t *testing.T) {
	tr := pablo.NewTrace()
	for _, f := range []string{"b", "c", "a"} {
		off := int64(0)
		for i := 0; i < 10; i++ {
			tr.Record(mkWrite(0, f, off, 2048, pablo.ModeUnix))
			off += 2048
		}
	}
	profs := Classify(tr)
	first := AdviseTiers(profs, CacheOptions{})
	for i := 0; i < 10; i++ {
		again := AdviseTiers(profs, CacheOptions{})
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("plan differs between calls:\n%+v\n%+v", first, again)
		}
	}
	files := make([]string, 0, len(first.Recs))
	for _, r := range first.Recs {
		files = append(files, r.File)
	}
	if !sort.StringsAreSorted(files) {
		t.Fatalf("recs not sorted by file: %v", files)
	}
	all := AdviseAll(profs, Options{})
	files = files[:0]
	for _, r := range all {
		files = append(files, r.File)
	}
	if !sort.StringsAreSorted(files) {
		t.Fatalf("AdviseAll not sorted by file: %v", files)
	}
}

// TestAdviseTiersFaultAware: the advisor trims its plan for the fault
// schedule the machine will run under. An array-side fault bounds
// write-behind exposure with a short flush deadline; a client flap caps
// the lease TTL at the default; a healthy plan changes nothing.
func TestAdviseTiersFaultAware(t *testing.T) {
	wbTrace := pablo.NewTrace()
	off := int64(0)
	for i := 0; i < 10; i++ {
		wbTrace.Record(mkWrite(0, "log", off, 2048, pablo.ModeUnix))
		off += 2048
	}
	wbProfs := Classify(wbTrace)

	healthy := AdviseTiers(wbProfs, CacheOptions{})
	if healthy.Tiers.IONode == nil || healthy.Tiers.IONode.FlushDeadline != 0 {
		t.Fatalf("healthy plan = %v, want wb=on with no flush deadline", healthy.Tiers)
	}

	for _, f := range []faults.Fault{
		{Kind: faults.DiskFail, At: time.Second, IONode: 0},
		{Kind: faults.NodeCrash, At: time.Second, IONode: 1},
		{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 4},
	} {
		opt := CacheOptions{Faults: faults.Plan{Faults: []faults.Fault{f}}}
		plan := AdviseTiers(wbProfs, opt)
		ion := plan.Tiers.IONode
		if ion == nil || !ion.WriteBehind {
			t.Fatalf("%s: write-behind dropped: %v", f.Kind, plan.Tiers)
		}
		if ion.FlushDeadline != faultRiskFlushDeadline {
			t.Errorf("%s: flush deadline = %v, want %v", f.Kind, ion.FlushDeadline, faultRiskFlushDeadline)
		}
		if len(plan.Notes) == 0 {
			t.Errorf("%s: no note recorded for the tightened deadline", f.Kind)
		}
	}

	// A client flap alone must not touch the I/O-node tier.
	flapOnly := AdviseTiers(wbProfs, CacheOptions{Faults: faults.Plan{Faults: []faults.Fault{
		{Kind: faults.ClientFlap, At: time.Second, Node: 0}}}})
	if flapOnly.Tiers.IONode == nil || flapOnly.Tiers.IONode.FlushDeadline != 0 {
		t.Errorf("client flap tightened the I/O-node flusher: %v", flapOnly.Tiers)
	}

	clTrace := pablo.NewTrace()
	for pass := 0; pass < 2; pass++ {
		base := time.Duration(pass) * 5 * time.Minute
		for i := int64(0); i < 4; i++ {
			clTrace.Record(at(mkRead(0, "quad", i*SignalBlock, SignalBlock, pablo.ModeRecord),
				base+time.Duration(i)*time.Second))
		}
	}
	clProfs := Classify(clTrace)
	longLease := AdviseTiers(clProfs, CacheOptions{})
	if longLease.Tiers.Client == nil || longLease.Tiers.Client.LeaseTTL <= cache.DefaultClientTTL {
		t.Fatalf("reuse profile did not earn a long lease: %v", longLease.Tiers)
	}
	capped := AdviseTiers(clProfs, CacheOptions{Faults: faults.Plan{Faults: []faults.Fault{
		{Kind: faults.ClientFlap, At: time.Second, Node: 0}}}})
	if capped.Tiers.Client == nil || capped.Tiers.Client.LeaseTTL != cache.DefaultClientTTL {
		t.Errorf("flap plan left lease at %v, want cap %v", capped.Tiers.Client.LeaseTTL, cache.DefaultClientTTL)
	}
	if len(capped.Notes) == 0 {
		t.Error("no note recorded for the capped lease")
	}
	// Array-side faults leave the client tier's lease alone.
	unCapped := AdviseTiers(clProfs, CacheOptions{Faults: faults.Plan{Faults: []faults.Fault{
		{Kind: faults.DiskFail, At: time.Second, IONode: 0}}}})
	if unCapped.Tiers.Client == nil || unCapped.Tiers.Client.LeaseTTL != longLease.Tiers.Client.LeaseTTL {
		t.Errorf("disk-fail plan changed the client lease: %v", unCapped.Tiers)
	}
}

// TestTiersString pins the advisor's rendering of a merged plan — the
// string docs/ADVISOR.md shows and the CLIs print.
func TestTiersString(t *testing.T) {
	cases := []struct {
		tiers cache.Tiers
		want  string
	}{
		{cache.Tiers{}, "none (paper default)"},
		{cache.Tiers{IONode: &cache.Config{WriteBehind: true, CapacityBytes: 4 << 20}},
			"ionode{wb=on ra=off cap=4MB}"},
		{cache.Tiers{
			IONode: &cache.Config{ReadAhead: 4, CapacityBytes: 32 << 20, FlushDeadline: 100 * time.Millisecond},
			Client: &cache.ClientConfig{CapacityBytes: 8 << 20, LeaseTTL: 12 * time.Minute},
		}, "ionode{wb=off ra=4 cap=32MB deadline=100ms} + client{cap=8MB ttl=12m0s}"},
		{cache.Tiers{Client: &cache.ClientConfig{CapacityBytes: 1 << 20}},
			"client{cap=1MB ttl=500ms (default)}"},
	}
	for _, c := range cases {
		if got := c.tiers.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
