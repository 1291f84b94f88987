package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run("table99", 1, true, "", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleExperimentToDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size workload")
	}
	dir := t.TempDir()
	// table4 is cheap: PRISM mode tables need no simulation runs beyond
	// configuration rendering... it still renders from static configs.
	if err := run("table4", 1, true, dir, 1); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(dir, "table4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "M_GLOBAL") {
		t.Fatalf("artifact content unexpected:\n%s", body)
	}
}

// TestRunParallelArtifactsIdentical regenerates the same artifacts with
// one worker and with several and requires identical files on disk —
// the -j flag must never change output.
func TestRunParallelArtifactsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size workloads")
	}
	serialDir, parDir := t.TempDir(), t.TempDir()
	const only = "table4,table5,figure9"
	if err := run(only, 1, true, serialDir, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(only, 1, true, parDir, 4); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table4", "table5", "figure9"} {
		a, err := os.ReadFile(filepath.Join(serialDir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parDir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between -j 1 and -j 4", id)
		}
	}
}
