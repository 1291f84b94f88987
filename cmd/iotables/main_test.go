package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragonio/internal/experiments"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "table99", 1, true, "", 1); err == nil {
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
	if err := run(io.Discard, "table4", 1, true, dir, 1); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(dir, "table4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "M_GLOBAL") {
		t.Fatalf("artifact content unexpected:\n%s", body)
	}
	// The file opens with the same title stdout prints for it.
	e, _ := experiments.ByID("table4")
	if !strings.HasPrefix(string(body), e.Title+"\n\n") {
		t.Fatalf("artifact file does not start with %q:\n%s", e.Title, body)
	}
}

// TestRunSummaryLabelsReference checks that -summary names what each
// artifact is compared against: the publication for a paper table, the
// baseline machine for a what-if study.
func TestRunSummaryLabelsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size workloads")
	}
	var out bytes.Buffer
	if err := run(&out, "table2,faults", 1, true, "", 2); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"table2": "paper", "faults": "baseline"}
	rows := map[string]int{}
	var id string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "################ ") {
			id = f[1]
		} else if strings.HasPrefix(line, "  ") && len(f) == 5 {
			rows[id]++
			if f[1] != want[id] {
				t.Errorf("%s row %q labelled %q, want %q", id, f[0], f[1], want[id])
			}
		}
	}
	for id := range want {
		if rows[id] == 0 {
			t.Errorf("%s: no summary rows in\n%s", id, out.String())
		}
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
	if err := run(io.Discard, only, 1, true, serialDir, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, only, 1, true, parDir, 4); err != nil {
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
