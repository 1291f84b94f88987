package main

import (
	"os"
	"path/filepath"
	"testing"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
)

func TestEscatVersionLookup(t *testing.T) {
	cases := []struct {
		id, dataset string
		ok          bool
	}{
		{"A", "ethylene", true},
		{"a2", "ethylene", true},
		{"B1", "ethylene", true},
		{"b", "ethylene", true},
		{"C", "ethylene", true},
		{"C", "co", true},
		{"c", "Carbon-Monoxide", true},
		{"Z", "ethylene", false},
	}
	for _, tc := range cases {
		v, ok := escat.LookupVersion(tc.id, tc.dataset)
		if ok != tc.ok {
			t.Fatalf("escat.LookupVersion(%q, %q) ok = %v", tc.id, tc.dataset, ok)
		}
		if ok && tc.dataset != "ethylene" && !v.RestartStaged {
			t.Fatal("carbon-monoxide C should be the staged-restart build")
		}
	}
}

func TestPrismVersionLookup(t *testing.T) {
	for _, id := range []string{"A", "b", "C"} {
		if _, ok := prism.LookupVersion(id); !ok {
			t.Fatalf("prism.LookupVersion(%q) not found", id)
		}
	}
	if _, ok := prism.LookupVersion("D"); ok {
		t.Fatal("prism.LookupVersion accepted junk")
	}
}

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
