// Command iobench runs the derived parallel-I/O benchmark suite — the
// paper's stated future work — sweeping canonical access-pattern
// kernels across PFS modes, request sizes, and machine configurations.
//
// Usage:
//
//	iobench                       # all kernels x all modes (default sizes)
//	iobench -kernel strided-reload -sweep modes
//	iobench -kernel staging-write  -sweep request -mode M_ASYNC
//	iobench -kernel compulsory-read -sweep ionodes -mode M_GLOBAL
//	iobench -kernel checkpoint     -sweep cache   -mode M_ASYNC
//	iobench -kernel strided-reload -sweep clientcache
//	iobench -kernel checkpoint     -sweep faults  -mode M_ASYNC
//	iobench -kernel checkpoint     -sweep logtier -mode M_ASYNC
//	iobench -nodes 64 -volume 67108864 -request 131072
//	iobench -shards auto           # shard each simulation across all cores
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"paragonio/internal/cliflags"
	"paragonio/internal/core"
	"paragonio/internal/iobench"
	"paragonio/internal/pfs"
)

func main() {
	var (
		kernel  = flag.String("kernel", "", "kernel slug (empty = all)")
		sweep   = flag.String("sweep", "modes", "sweep dimension: "+strings.Join(iobench.SweepIDs(), ", "))
		mode    = flag.String("mode", "M_ASYNC", "access mode for request/ionodes sweeps")
		nodes   = flag.Int("nodes", 32, "compute nodes")
		request = flag.Int64("request", 128<<10, "request size (bytes)")
		volume  = flag.Int64("volume", 32<<20, "total bytes per kernel")
		seed    = flag.Int64("seed", 1, "workload seed")
		shards  = flag.String("shards", "1",
			"kernel shards per simulation: 1 = single-threaded, N >= 2 = I/O + compute lanes, auto = GOMAXPROCS (results are identical for any value)")
	)
	flag.Parse()
	ns, err := cliflags.ParseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iobench:", err)
		os.Exit(1)
	}
	// The benchmark machine keeps the paper's 16 I/O nodes (the -sweep
	// ionodes dimension varies it per run, but the notice is about the
	// base topology).
	if notice := core.ShardNotice(ns, 16, *nodes); notice != "" {
		fmt.Fprintln(os.Stderr, "iobench:", notice)
	}
	if err := run(*kernel, *sweep, *mode, *nodes, *request, *volume, *seed, ns); err != nil {
		fmt.Fprintln(os.Stderr, "iobench:", err)
		os.Exit(1)
	}
}

func run(kernel, sweep, modeName string, nodes int, request, volume, seed int64, shards int) error {
	var kernels []iobench.Kernel
	if kernel == "" {
		kernels = iobench.Kernels()
	} else {
		var found bool
		for _, k := range iobench.Kernels() {
			if k.String() == kernel {
				kernels = append(kernels, k)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown kernel %q (try strided-reload, staging-write, ...)", kernel)
		}
	}
	mode, err := pfs.ParseMode(modeName)
	if err != nil {
		return err
	}
	sw, ok := iobench.LookupSweep(sweep)
	if !ok {
		return cliflags.Sweep(sweep, iobench.SweepIDs())
	}
	for _, k := range kernels {
		base := iobench.Params{
			Kernel: k, Mode: mode, Nodes: nodes,
			Request: request, Volume: volume, Seed: seed,
			Shards: shards,
		}
		results, err := sw.Run(base)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s: %d nodes, %d KB requests, %d MB volume (sweep: %s)",
			k, nodes, request>>10, volume>>20, sweep)
		if err := iobench.WriteTable(os.Stdout, title, results, sw.Columns); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
