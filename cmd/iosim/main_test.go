package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunRejectsUnknownInputs(t *testing.T) {
	if err := run("nosuch", "ethylene", "A", 1, "", false); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := run("escat", "nosuch", "A", 1, "", false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run("escat", "ethylene", "Q", 1, "", false); err == nil {
		t.Fatal("unknown version accepted")
	}
	if err := run("prism", "", "Q", 1, "", false); err == nil {
		t.Fatal("unknown prism version accepted")
	}
	if err := run("prism", "co", "C", 1, "", false); err == nil {
		t.Fatal("prism accepted a dataset")
	}
}

func TestRunEndToEndWritesTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workload")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.sddf")
	if err := run("prism", "", "A", 1, out, true); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty trace file")
	}
}
