package experiments

import (
	"reflect"
	"regexp"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/disk"
	"paragonio/internal/faults"
	"paragonio/internal/mesh"
	"paragonio/internal/pfs"
)

// TestConfigKeySemanticEquality pins that configurations meaning the
// same run hash equal: literally identical configs, and equal-valued
// configs behind distinct pointers.
func TestConfigKeySemanticEquality(t *testing.T) {
	base := core.Config{Seed: 1, Shards: 4, Window: 7 * time.Microsecond}
	if ConfigKey(base, "eth/C") != ConfigKey(base, "eth/C") {
		t.Fatal("identical configs hash differently")
	}
	// Distinct pointers to equal-valued configs are the same run.
	a, b := base, base
	a.Tiers.IONode = &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20}
	b.Tiers.IONode = &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20}
	if ConfigKey(a, "eth/C") != ConfigKey(b, "eth/C") {
		t.Error("equal-valued cache configs behind distinct pointers hash differently")
	}
	// An empty fault plan is the healthy machine: no serialization tail.
	c := base
	c.Faults = faults.Plan{Faults: []faults.Fault{}}
	if ConfigKey(base, "eth/C") != ConfigKey(c, "eth/C") {
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
		{"seed", core.Config{Seed: 2}, "eth/C"},
		{"nodes", core.Config{Seed: 1, Nodes: 128}, "eth/C"},
		{"shards", core.Config{Seed: 1, Shards: 8}, "eth/C"},
		{"window", core.Config{Seed: 1, Window: 7 * time.Microsecond}, "eth/C"},
		{"ionodes", core.Config{Seed: 1, IONodes: 32}, "eth/C"},
		{"stripe", core.Config{Seed: 1, StripeUnit: 128 << 10}, "eth/C"},
		{"sample", core.Config{Seed: 1, SampleInterval: time.Second}, "eth/C"},
		{"mesh", core.Config{Seed: 1, Mesh: func() *mesh.Config { c := mesh.DefaultConfig(); c.Rows = 32; return &c }()}, "eth/C"},
		{"disk", core.Config{Seed: 1, Disk: func() *disk.Params { d := disk.DefaultParams(); d.DataDisks = 8; return &d }()}, "eth/C"},
		{"ionode-tier", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true}}}, "eth/C"},
		{"ionode-ra", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, ReadAhead: 4}}}, "eth/C"},
		{"ionode-cap", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, CapacityBytes: 1 << 20}}}, "eth/C"},
		{"ionode-deadline", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, FlushDeadline: 100 * time.Millisecond}}}, "eth/C"},
		{"client-tier", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{}}}, "eth/C"},
		{"client-cap", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{CapacityBytes: 8 << 20}}}, "eth/C"},
		{"client-ttl", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{LeaseTTL: 10 * time.Minute}}}, "eth/C"},
		{"log-tier", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{}}}, "eth/C"},
		{"log-seg", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{SegmentBytes: 256 << 10}}}, "eth/C"},
		{"log-cap", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{CapacityBytes: 32 << 20}}}, "eth/C"},
		{"log-drain", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{DrainDeadline: 10 * time.Millisecond}}}, "eth/C"},
		{"fault-disk", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-disk-io1", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 1}}}}, "eth/C"},
		{"fault-disk-later", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: 2 * time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-disk-repair", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, Until: 3 * time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-crash", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, At: time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-straggler", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 4}}}}, "eth/C"},
		{"fault-straggler-x8", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 8}}}}, "eth/C"},
		{"fault-flap", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.ClientFlap, At: time.Second, Node: 1, Count: 3, Period: time.Second}}}}, "eth/C"},
		{"app", base, "prism/C"},
	}
	hexKey := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]string{ConfigKey(base, "eth/C"): "base"}
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
// a run's outcome: performance knobs the key may leave out.
var perfOnlyFields = map[string]bool{"Shards": true, "Window": true}

// TestConfigKeyExhaustive walks core.Config and every struct it nests —
// the tiers, the fault plan, the mesh, disk and cost overrides — by
// reflection, and mutates each leaf field in turn. Every field must
// change the key unless it is on the perf-only allowlist, so a field
// added without a matching line in canonicalConfig fails here instead
// of serving a cached result of a different run. A fault field counts as
// keyed when it changes the key in the fault whose kind uses it: the
// plan holds one fault of each field-carrying kind.
func TestConfigKeyExhaustive(t *testing.T) {
	m, d, c := mesh.DefaultConfig(), disk.DefaultParams(), pfs.DefaultCosts()
	cfg := core.Config{
		Nodes: 128, Mesh: &m, Disk: &d, Costs: &c, Seed: 1,
		Tiers: cache.Tiers{IONode: &cache.Config{}, Client: &cache.ClientConfig{}, Log: &cache.LogConfig{}},
		Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, Until: 2 * time.Second, IONode: 1, Factor: 4},
			{Kind: faults.ClientFlap, At: time.Second, Node: 3, Period: time.Second, Count: 3},
		}},
	}
	base := ConfigKey(cfg, "eth/C")
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
		if ConfigKey(cfg, "eth/C") != base {
			keyed[path] = true
		}
		v.Set(old)
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")

	if ConfigKey(cfg, "eth/C") != base {
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
