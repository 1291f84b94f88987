package iobench

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/modes.golden from the current simulator")

// modeStacks are the tier stacks the mode golden runs every kernel and
// mode under: bare PFS, the lease-coherent client tier, and the log tier
// draining through a deadline-flushed I/O-node cache.
var modeStacks = []struct {
	name  string
	tiers func() cache.Tiers
}{
	{"none", func() cache.Tiers { return cache.Tiers{} }},
	{"client", func() cache.Tiers { return cache.Tiers{Client: benchClient()} }},
	{"log+ion", func() cache.Tiers {
		return cache.Tiers{Log: &cache.LogConfig{}, IONode: &cache.Config{
			WriteBehind: true, CapacityBytes: 2 << 20, FlushDeadline: 50 * time.Millisecond,
		}}
	}},
}

// modePlan is the faulted variant of a stack: I/O node 1 crashes at
// 50 ms, and on the client stack a compute node also flaps, storming
// lease recalls.
func modePlan(client bool) faults.Plan {
	fs := []faults.Fault{{Kind: faults.NodeCrash, At: 50 * time.Millisecond, IONode: 1}}
	if client {
		fs = append(fs, faults.Fault{Kind: faults.ClientFlap, At: 50 * time.Millisecond,
			Node: 1, Count: 3, Period: 20 * time.Millisecond})
	}
	return faults.Plan{Faults: fs}
}

// TestModeDigestsGolden pins the trace of every kernel in every access
// mode it accepts, reading and writing, under each tier stack, healthy
// and with a crashed I/O node: one line of event count and FNV-1a trace
// digest per configuration. It is the fixed point for restructuring the
// pfs data path and the cache tiers; regenerate with
//
//	go test ./internal/iobench -run ModeDigestsGolden -update
//
// only when the simulation model changes on purpose.
func TestModeDigestsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, k := range Kernels() {
		for _, mode := range ModesFor(k) {
			for _, st := range modeStacks {
				for _, faulted := range []bool{false, true} {
					p := Params{
						Kernel:  k,
						Mode:    mode,
						Nodes:   4,
						Request: 96 << 10,
						Volume:  4 << 20,
						IONodes: 4,
						Tiers:   st.tiers(),
					}
					label := "healthy"
					if faulted {
						p.Faults = modePlan(st.name == "client")
						label = "crash"
					}
					_, res, err := runTraced(context.Background(), p)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", k, mode, st.name, label, err)
					}
					fmt.Fprintf(&b, "%s %s %s %s events=%d digest=%#016x\n",
						k, mode, st.name, label, res.Trace.Len(), res.Trace.Digest())
				}
			}
		}
	}
	path := filepath.Join("testdata", "modes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, %s has %d", len(gl), path, len(wl))
	}
}
