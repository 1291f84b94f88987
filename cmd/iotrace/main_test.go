package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"paragonio/internal/pablo"
)

// writeTestTrace builds a small on-disk SDDF trace.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	tr := pablo.NewTrace()
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpOpen, File: "f",
		Duration: time.Millisecond, Mode: "M_UNIX"})
	for i := 0; i < 20; i++ {
		tr.Record(pablo.Event{Node: i % 4, Op: pablo.OpRead, File: "f",
			Offset: int64(i) * 512, Size: 512,
			Start: time.Duration(i) * time.Second, Duration: 2 * time.Millisecond,
			Mode: "M_UNIX"})
	}
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpWrite, File: "g",
		Offset: 0, Size: 1 << 20, Start: time.Minute, Duration: time.Second,
		Mode: "M_ASYNC"})
	path := filepath.Join(t.TempDir(), "t.sddf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pablo.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRoundTrip(t *testing.T) {
	path := writeTestTrace(t)
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 22 {
		t.Fatalf("loaded %d events", tr.Len())
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.sddf")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSubcommandsRun(t *testing.T) {
	path := writeTestTrace(t)
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := summary(tr); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if err := cdf(tr, "read"); err != nil {
		t.Fatalf("cdf: %v", err)
	}
	if err := cdf(tr, "bogus"); err == nil {
		t.Fatal("cdf accepted bogus op")
	}
	if err := timeline(tr, "read"); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	if err := timeline(tr, "seek"); err == nil {
		t.Fatal("timeline with no events should error")
	}
	if err := windows(tr, 10*time.Second); err != nil {
		t.Fatalf("windows: %v", err)
	}
	if err := windows(tr, 0); err == nil {
		t.Fatal("windows accepted zero width")
	}
	if err := regions(tr, "f", 1024); err != nil {
		t.Fatalf("regions: %v", err)
	}
	if err := regions(tr, "", 1024); err == nil {
		t.Fatal("regions without file accepted")
	}
	if err := regions(tr, "nosuch", 1024); err == nil {
		t.Fatal("regions accepted unknown file")
	}
	if err := advise(tr); err != nil {
		t.Fatalf("advise: %v", err)
	}
	if err := csv(tr); err != nil {
		t.Fatalf("csv: %v", err)
	}
	if err := replayCmd(tr, 4, 0, false); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestTaxonomySubcommand(t *testing.T) {
	path := writeTestTrace(t)
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := taxonomy(tr); err != nil {
		t.Fatalf("taxonomy: %v", err)
	}
}
