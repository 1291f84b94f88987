package experiments

import (
	"reflect"
	"regexp"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/faults"
	"paragonio/internal/mesh"
	"paragonio/internal/pfs"
)

// TestConfigKeySemanticEquality pins that configurations meaning the
// same run hash equal: literally identical configs, equal-valued configs
// behind distinct pointers, configs differing only in the ignored
// shard count, and the paper machine's I/O-node count and stripe unit
// spelled out or left zero.
func TestConfigKeySemanticEquality(t *testing.T) {
	base := core.Config{Seed: 1}
	if ConfigKey(base, "escat/ethylene/C") != ConfigKey(base, "escat/ethylene/C") {
		t.Fatal("identical configs hash differently")
	}
	for _, shards := range []int{1, 4} {
		sharded := base
		sharded.Shards = shards
		if ConfigKey(sharded, "escat/ethylene/C") != ConfigKey(base, "escat/ethylene/C") {
			t.Errorf("shards=%d hashes differently from shards=0", shards)
		}
	}
	// Distinct pointers to equal-valued configs are the same run.
	a, b := base, base
	a.Tiers.IONode = &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20}
	b.Tiers.IONode = &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20}
	if ConfigKey(a, "escat/ethylene/C") != ConfigKey(b, "escat/ethylene/C") {
		t.Error("equal-valued cache configs behind distinct pointers hash differently")
	}
	// The paper machine spelled out is the paper machine left implied.
	spelled := base
	spelled.IONodes, spelled.StripeUnit = pfs.DefaultIONodes, pfs.DefaultStripeUnit
	if ConfigKey(spelled, "escat/ethylene/C") != ConfigKey(base, "escat/ethylene/C") {
		t.Error("the default I/O-node count and stripe unit spelled out hash differently from zero")
	}
	// An empty fault plan is the healthy machine: no serialization tail.
	c := base
	c.Faults = faults.Plan{Faults: []faults.Fault{}}
	if ConfigKey(base, "escat/ethylene/C") != ConfigKey(c, "escat/ethylene/C") {
		t.Error("empty (non-nil) fault plan hashes differently from the healthy machine")
	}
}

// TestConfigKeyFieldSensitivity mutates every run-relevant field — and
// the app identity — one at a time, and requires each mutation to change
// the hash and all hashes to be pairwise distinct.
func TestConfigKeyFieldSensitivity(t *testing.T) {
	base := core.Config{Seed: 1}
	mutations := []struct {
		name string
		cfg  core.Config
		app  string
	}{
		{"seed", core.Config{Seed: 2}, "escat/ethylene/C"},
		{"nodes", core.Config{Seed: 1, Nodes: 128}, "escat/ethylene/C"},
		{"ionodes", core.Config{Seed: 1, IONodes: 32}, "escat/ethylene/C"},
		{"stripe", core.Config{Seed: 1, StripeUnit: 128 << 10}, "escat/ethylene/C"},
		{"sample", core.Config{Seed: 1, SampleInterval: time.Second}, "escat/ethylene/C"},
		{"mesh", core.Config{Seed: 1, Mesh: func() *mesh.Config { c := mesh.DefaultConfig(); c.Rows = 32; return &c }()}, "escat/ethylene/C"},
		{"ionode-tier", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true}}}, "escat/ethylene/C"},
		{"ionode-ra", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, ReadAhead: 4}}}, "escat/ethylene/C"},
		{"ionode-cap", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, CapacityBytes: 1 << 20}}}, "escat/ethylene/C"},
		{"ionode-deadline", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, FlushDeadline: 100 * time.Millisecond}}}, "escat/ethylene/C"},
		{"client-tier", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{}}}, "escat/ethylene/C"},
		{"client-cap", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{CapacityBytes: 8 << 20}}}, "escat/ethylene/C"},
		{"client-ttl", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{LeaseTTL: 10 * time.Minute}}}, "escat/ethylene/C"},
		{"log-tier", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{}}}, "escat/ethylene/C"},
		{"log-cap", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{CapacityBytes: 32 << 20}}}, "escat/ethylene/C"},
		{"log-drain", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{DrainDeadline: 10 * time.Millisecond}}}, "escat/ethylene/C"},
		{"fault-disk", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 0}}}}, "escat/ethylene/C"},
		{"fault-disk-io1", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 1}}}}, "escat/ethylene/C"},
		{"fault-disk-later", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: 2 * time.Second, IONode: 0}}}}, "escat/ethylene/C"},
		{"fault-disk-repair", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, Until: 3 * time.Second, IONode: 0}}}}, "escat/ethylene/C"},
		{"fault-crash", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, At: time.Second, IONode: 0}}}}, "escat/ethylene/C"},
		{"fault-straggler", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 4}}}}, "escat/ethylene/C"},
		{"fault-straggler-x8", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 8}}}}, "escat/ethylene/C"},
		{"fault-flap", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.ClientFlap, At: time.Second, Node: 1, Count: 3, Period: time.Second}}}}, "escat/ethylene/C"},
		{"app", base, "prism/C"},
	}
	hexKey := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]string{ConfigKey(base, "escat/ethylene/C"): "base"}
	for _, m := range mutations {
		k := ConfigKey(m.cfg, m.app)
		if !hexKey.MatchString(k) {
			t.Fatalf("%s: key %q is not 16 hex digits", m.name, k)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q hashes identically to %q (key %s)", m.name, prev, k)
		}
		seen[k] = m.name
	}
}

// perfOnlyFields are the core.Config fields documented as never changing
// a run's outcome, which the key leaves out: the deprecated, ignored
// shard count.
var perfOnlyFields = map[string]bool{"Shards": true}

// TestConfigKeyExhaustive walks core.Config and every struct it nests —
// the tiers, the fault plan and the mesh override — by
// reflection, and mutates each leaf field in turn. Every field must
// change the key unless it is on the perf-only allowlist, so a field
// added without a matching line in canonicalConfig fails here instead
// of serving a cached result of a different run. A fault field counts as
// keyed when it changes the key in the fault whose kind uses it: the
// plan holds one fault of each field-carrying kind.
func TestConfigKeyExhaustive(t *testing.T) {
	m := mesh.DefaultConfig()
	cfg := core.Config{
		Nodes: 128, Mesh: &m, Seed: 1,
		Tiers: cache.Tiers{IONode: &cache.Config{}, Client: &cache.ClientConfig{}, Log: &cache.LogConfig{}},
		Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, Until: 2 * time.Second, IONode: 1, Factor: 4},
			{Kind: faults.ClientFlap, At: time.Second, Node: 3, Period: time.Second, Count: 3},
		}},
	}
	base := ConfigKey(cfg, "escat/ethylene/C")
	seen, keyed := map[string]bool{}, map[string]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				t.Fatalf("%s is nil in the base config; set it so its fields are walked", path)
			}
			walk(v.Elem(), path)
			return
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: the walk cannot mutate it", path, f.Name)
					continue
				}
				name := f.Name
				if path != "" {
					name = path + "." + f.Name
				}
				walk(v.Field(i), name)
			}
			return
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("%s is empty in the base config; add an element so its fields are walked", path)
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
			return
		}
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: no mutation for a %s field; teach this test one", path, v.Kind())
		}
		seen[path] = true
		if ConfigKey(cfg, "escat/ethylene/C") != base {
			keyed[path] = true
		}
		v.Set(old)
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")

	if ConfigKey(cfg, "escat/ethylene/C") != base {
		t.Fatal("the walk did not restore the base config")
	}
	for path := range seen {
		if !keyed[path] && !perfOnlyFields[path] {
			t.Errorf("changing core.Config field %s leaves ConfigKey unchanged: key it in canonicalConfig, "+
				"or allowlist it in perfOnlyFields if it can never change a run's outcome", path)
		}
	}
	for f := range perfOnlyFields {
		if !seen[f] {
			t.Errorf("perf-only field %s is no longer in core.Config", f)
		}
	}
}

// TestSuiteKeyGuardsMutation pins the singleflight guard: mutating a
// Suite's configuration after a run is cached must not serve the stale
// result for the new configuration.
func TestSuiteKeyGuardsMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	s := NewSuite(1)
	first, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 2 // the latent bug: before ConfigKey keying, this served the seed-1 run
	second, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("mutated Suite served the cached result of the old configuration")
	}
	if first.Trace.Digest() == second.Trace.Digest() {
		t.Error("seed change produced an identical trace — mutation not reflected in the run")
	}
}

// TestSuiteKeysRunsByTheDaemonsAddress pins that the suite keys a run by
// its catalogue identity: ethylene C at seed 1 lives under the content
// address iosimd returns for {"app":"escat","version":"C"}
// (server.TestSpellingsShareOneContentAddress pins the same hash).
func TestSuiteKeysRunsByTheDaemonsAddress(t *testing.T) {
	s := NewSuite(1)
	if _, err := s.Ethylene("C"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.runs["82dea089a7176eb4"]; !ok || c.res == nil || len(s.runs) != 1 {
		keys := make([]string, 0, len(s.runs))
		for k := range s.runs {
			keys = append(keys, k)
		}
		t.Errorf("suite keys ethylene C at seed 1 as %v, want [82dea089a7176eb4]", keys)
	}
}

// BenchmarkConfigKey prices one content address of a run with all three
// cache tiers and two faults: the key every iosimd request and every
// Suite run computes.
func BenchmarkConfigKey(b *testing.B) {
	cfg := core.Config{
		Seed: 1,
		Tiers: cache.Tiers{
			IONode: &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20},
			Client: &cache.ClientConfig{CapacityBytes: 8 << 20, LeaseTTL: 10 * time.Minute},
			Log:    &cache.LogConfig{},
		},
		Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 0},
			{Kind: faults.ClientFlap, At: time.Second, Node: 1, Count: 3, Period: time.Second},
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConfigKey(cfg, "prism/C")
	}
}
