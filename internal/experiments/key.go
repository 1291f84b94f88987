package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"

	"paragonio/internal/core"
	"paragonio/internal/pfs"
)

// KeyVersion tags the canonical serialization underneath ConfigKey.
// Persistent stores that index artifacts by ConfigKey (the iosimd spill
// directory) record this tag alongside the artifacts and revalidate it
// on boot: a mismatch means the canonicalisation changed, so every
// stored hash is unreachable and the store must be rebuilt. "v2"
// retired the deprecated Cache alias and added the faults plan to the
// serialization; "v3" added the host-side log tier (Tiers.Log); "v4"
// dropped the shard count and sync-window width, which never changed a
// run's outcome; "v5" dropped the log tier's segment size (which never
// changed a run's outcome) and its append-cost fields (now constants);
// "v6" dropped the disk and cost overrides and the block tiers' block
// sizes, copy rates, hit costs, capacity fraction and recall size (all
// now constants of the paper machine).
const KeyVersion = "v6"

// ConfigKey returns the canonical content address of one application run:
// a 64-bit FNV-1a hash (16 hex digits) over app — the run's catalogue
// identity, apps.Run.Identity(), e.g. "escat/ethylene/C" or "prism/C" —
// and every field of cfg that can influence the simulated outcome,
// serialized in a fixed order.
//
// Any semantic difference — seed, cache-tier parameter, fault plan,
// machine override — changes the key, and nothing else does: the
// deprecated core.Config.Shards is left out, so the same run requested
// at any shard count shares one key. The Suite and the iosimd daemon key
// a run by the same identity, so one run has one content address
// everywhere: the Suite keys its singleflight run cache through
// ConfigKey (guarding against a Suite whose Seed is mutated after runs
// began serving stale entries), and iosimd uses it as the content address
// of its persistent result cache.
//
// The key is stable within one build of this repository. It is not an
// across-versions contract: the serialization carries a version tag
// ("v6") precisely so a future field change can revalidate spilled
// artifacts by changing it.
func ConfigKey(cfg core.Config, app string) string {
	h := fnv.New64a()
	h.Write([]byte(canonicalConfig(cfg, app)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// canonicalConfig serializes (cfg, app) with stable field ordering. All
// nested override structs (mesh.Config, cache.Config, cache.ClientConfig,
// cache.LogConfig) are flat value types — durations,
// ints, floats — so %+v renders them deterministically, field names
// included (a reordering of struct fields changes the string, never the
// mapping from semantics to string).
//
// The paper machine's I/O-node count and stripe unit spelled out are
// keyed as zero, the spelling that leaves them implied.
func canonicalConfig(cfg core.Config, app string) string {
	tiers := cfg.Tiers
	if cfg.IONodes == pfs.DefaultIONodes {
		cfg.IONodes = 0
	}
	if cfg.StripeUnit == pfs.DefaultStripeUnit {
		cfg.StripeUnit = 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|app=%s|nodes=%d|ionodes=%d|stripe=%d|seed=%d|sample=%d",
		KeyVersion,
		app, cfg.Nodes, cfg.IONodes, cfg.StripeUnit, cfg.Seed, int64(cfg.SampleInterval))
	if cfg.Mesh != nil {
		fmt.Fprintf(&b, "|mesh=%+v", *cfg.Mesh)
	}
	if tiers.IONode != nil {
		fmt.Fprintf(&b, "|ionode=%+v", *tiers.IONode)
	}
	if tiers.Client != nil {
		fmt.Fprintf(&b, "|client=%+v", *tiers.Client)
	}
	if tiers.Log != nil {
		fmt.Fprintf(&b, "|log=%+v", *tiers.Log)
	}
	if !cfg.Faults.Empty() {
		// faults.Plan.String is the plan's own canonical rendering
		// (fixed field order per kind), so two plans hash equal exactly
		// when they inject the same faults in the same order.
		fmt.Fprintf(&b, "|faults=%s", cfg.Faults.String())
	}
	return b.String()
}
