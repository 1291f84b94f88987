package experiments

import (
	"strings"
	"time"

	"paragonio/internal/iobench"
	"paragonio/internal/pfs"
)

// The faults experiment is the ROADMAP degraded-mode study: it re-runs
// the two checkpoint-shaped workloads — the PRISM periodic dump and the
// ESCAT staging pattern — under the injectable fault plane
// (internal/faults), one fault kind per ladder rung: a single failed
// data drive in one RAID-3 array (parity reconstruction on every
// request), an I/O-node crash with stripe failover to the ring
// successor, a 4x straggler node, and a flapping client recalling every
// lease in the tier. Faults are scheduled DES events, so every degraded
// run is exactly as deterministic as the healthy one (the pinned golden
// digests live in faults_test.go).

// faultsPrismWorkload is the PRISM-shaped rung: node zero periodically
// dumps the global state in 64 KB records over 4 I/O nodes, compute
// between bursts. Four I/O nodes (not the paper's 16) keep a single
// failed component a quarter of the machine — big enough to measure.
func faultsPrismWorkload(s *Suite) iobench.Params {
	return iobench.Params{
		Kernel:  iobench.Checkpoint,
		Mode:    pfs.MAsync,
		Nodes:   8,
		Request: 64 << 10,
		Volume:  32 << 20,
		Cycles:  4,
		Compute: 500 * time.Millisecond,
		IONodes: 4,
		Seed:    s.Seed,
	}
}

// faultsEscatWorkload is the ESCAT-shaped rung: every node writes
// interleaved slots of a staging file in compute/write cycles.
func faultsEscatWorkload(s *Suite) iobench.Params {
	return iobench.Params{
		Kernel:  iobench.StagingWrite,
		Mode:    pfs.MAsync,
		Nodes:   8,
		Request: 64 << 10,
		Volume:  32 << 20,
		Cycles:  4,
		Compute: 500 * time.Millisecond,
		IONodes: 4,
		Seed:    s.Seed,
	}
}

// faultsExp runs both workloads down the fault ladder and renders the
// comparison.
func faultsExp(s *Suite) (*Artifact, error) {
	var b strings.Builder
	prismRes, err := kernelLadder(&b, "faults",
		"PRISM-shaped checkpoint (4 x 8 MB bursts, 4 I/O nodes) under injected faults",
		faultsPrismWorkload(s))
	if err != nil {
		return nil, err
	}
	b.WriteString("\n")
	if _, err := kernelLadder(&b, "faults",
		"ESCAT-shaped staging writes (8 nodes interleaving, 4 I/O nodes) under injected faults",
		faultsEscatWorkload(s)); err != nil {
		return nil, err
	}

	rungs, err := iobench.FindRungs(prismRes, "healthy", "disk-fail", "node-crash", "straggler x4")
	if err != nil {
		return nil, err
	}
	healthy, disk, crash, strag := rungs[0], rungs[1], rungs[2], rungs[3]

	art := &Artifact{ID: "faults", Text: b.String()}
	pair(art, "wall_s", wall, healthy, healthy)
	pair(art, "wall_diskfail_s", wall, healthy, disk)
	pair(art, "wall_crash_s", wall, healthy, crash)
	pair(art, "wall_strag_s", wall, healthy, strag)
	pair(art, "degraded_reqs",
		func(r *iobench.Result) float64 { return float64(r.Degraded) }, healthy, disk)
	pair(art, "rerouted_reqs",
		func(r *iobench.Result) float64 { return float64(r.Rerouted) }, healthy, crash)
	art.Notes = "Not a paper artifact: the ROADMAP degraded-mode study. " +
		"'baseline' is the healthy machine (the only configuration the " +
		"paper measured); 'measured' re-runs it with one injected " +
		"fault per rung. A failed data drive prices every request on " +
		"the broken array with a parity-reconstruction pass at the " +
		"surviving drives' bandwidth; a node crash reroutes its " +
		"stripes to the ring successor; the 4x straggler stretches " +
		"one node's disk and mesh service. Honest negatives, headline " +
		"first: the node crash makes the PRISM-shaped checkpoint " +
		"FASTER than healthy. The lone sequential writer round-robins " +
		"stripes over 4 nodes, so after failover the ring successor " +
		"holds two adjacent stripes and serves them back to back — " +
		"each pair becomes a sequential continuation under the seek " +
		"model's seq-hit pricing, halving the seeks the healthy " +
		"4-way distribution pays. The win is an artifact of a " +
		"single-writer dump; a concurrent workload would miss the " +
		"lost array's parallelism (the ESCAT table above shows the " +
		"8-writer staging rung slowing ~1.6x under the same crash). " +
		"And the flapping client is digest-visible but wall-free " +
		"here: write-dominated checkpoint streams hold few read " +
		"leases worth recalling — recall storms hurt read-back " +
		"workloads, not dump-only ones."
	return art, nil
}
