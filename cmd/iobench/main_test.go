package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run("nosuch", "modes", "M_ASYNC", 8, 65536, 1<<20, 1, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	err := run("strided-reload", "nosuch", "M_ASYNC", 8, 65536, 1<<20, 1, 1)
	if err == nil {
		t.Fatal("unknown sweep accepted")
	}
	// The unknown-sweep error enumerates every sweep id, so a new sweep
	// that forgets to list itself fails here.
	want := `unknown sweep "nosuch" (valid: modes, request, ionodes, cache, clientcache, advisor, flush, faults, logtier)`
	if err.Error() != want {
		t.Fatalf("unknown-sweep error = %q, want %q", err, want)
	}
	if err := run("strided-reload", "modes", "M_BOGUS", 8, 65536, 1<<20, 1, 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestSweepOutputGolden renders every sweep id on a small machine and
// requires the bytes iobench prints to equal testdata/sweeps.golden.
// Each case is the CLI invocation
//
//	iobench -kernel K -sweep S -mode M -nodes 8 -request 65536 -volume 1048576
//
// so the golden file can be regenerated by running those commands in
// order and concatenating their standard output.
func TestSweepOutputGolden(t *testing.T) {
	cases := []struct{ kernel, sweep, mode string }{
		{"strided-reload", "modes", "M_ASYNC"},
		{"staging-write", "request", "M_ASYNC"},
		{"compulsory-read", "ionodes", "M_GLOBAL"},
		{"checkpoint", "cache", "M_ASYNC"},
		{"strided-reload", "clientcache", "M_ASYNC"},
		{"strided-reload", "advisor", "M_ASYNC"},
		{"checkpoint", "advisor", "M_ASYNC"},
		{"checkpoint", "flush", "M_ASYNC"},
		{"checkpoint", "faults", "M_ASYNC"},
		{"checkpoint", "logtier", "M_ASYNC"},
	}
	// run prints to os.Stdout; point it at a file for the duration.
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	for _, c := range cases {
		if err = run(c.kernel, c.sweep, c.mode, 8, 65536, 1<<20, 1, 1); err != nil {
			break
		}
	}
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sweeps.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/sweeps.golden at line %d:\ngot:  %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/sweeps.golden %d", len(gl), len(wl))
	}
}

func TestRunSmallSweep(t *testing.T) {
	if err := run("staging-write", "ionodes", "M_ASYNC", 8, 65536, 1<<20, 1, 1); err != nil {
		t.Fatal(err)
	}
}
