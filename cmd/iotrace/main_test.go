package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paragonio/internal/pablo"
	"paragonio/internal/sddf"
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
	tr, _, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 22 {
		t.Fatalf("loaded %d events", tr.Len())
	}
	if _, _, err := load(filepath.Join(t.TempDir(), "missing.sddf")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSubcommandsRun(t *testing.T) {
	path := writeTestTrace(t)
	tr, _, err := load(path)
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
	tr, _, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := taxonomy(tr); err != nil {
		t.Fatalf("taxonomy: %v", err)
	}
}

func TestLoadAutoDetectsFormats(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(pablo.Event{Node: 1, Op: pablo.OpRead, File: "f", Size: 100,
		Start: time.Second, Duration: time.Millisecond, Mode: "M_UNIX"})
	dir := t.TempDir()

	// SDDF text format.
	txtPath := filepath.Join(dir, "t.sddf")
	ft, _ := os.Create(txtPath)
	if err := pablo.WriteTrace(ft, tr); err != nil {
		t.Fatal(err)
	}
	ft.Close()

	// Generic self-describing format.
	genPath := filepath.Join(dir, "t.gsddf")
	fg, _ := os.Create(genPath)
	w := sddf.NewWriter(fg)
	if err := pablo.WriteSDDF(w, tr); err != nil {
		t.Fatal(err)
	}
	fg.Close()

	for _, path := range []string{txtPath, genPath} {
		got, _, err := load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.Len() != 1 || got.Events()[0] != tr.Events()[0] {
			t.Fatalf("%s: wrong content", path)
		}
	}
}

// writeCacheStream builds a generic SDDF stream carrying both record
// types: tag-1 io-events and tag-2 cache-samples (two I/O nodes over
// four sampling instants, with the client tier active).
func writeCacheStream(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.gsddf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := sddf.NewWriter(f)
	tr := pablo.NewTrace()
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpWrite, File: "chk", Size: 4096,
		Start: time.Second, Duration: 3 * time.Millisecond, Mode: "M_ASYNC"})
	if err := pablo.WriteSDDF(w, tr); err != nil {
		t.Fatal(err)
	}
	desc := pablo.CacheSampleDescriptor()
	if err := w.Define(desc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for io := 0; io < 2; io++ {
			rec, err := pablo.CacheSampleRecord(desc, pablo.CacheSample{
				T: time.Duration(i+1) * 10 * time.Second, IONode: io,
				Hits: int64(8 * (i + 1)), Misses: int64(4 * (4 - i)),
				Dirty:      int64((i + 1) * (io + 3)),
				ClientHits: int64(20 * (i + 1)), ClientMisses: 10,
				Recalls: int64(i), StaleAverted: int64(i / 2),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCachePlotsGolden pins the rendered tag-2 plots against golden
// files: the second record stream must stay analyzable end to end.
func TestCachePlotsGolden(t *testing.T) {
	path := writeCacheStream(t)
	tr, samples, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("io-events: %d, want 1", tr.Len())
	}
	if len(samples) != 8 {
		t.Fatalf("cache-samples: %d, want 8", len(samples))
	}
	cases := []struct {
		golden string
		render func(w *strings.Builder) error
	}{
		{"cache_dirty_timeline.golden", func(w *strings.Builder) error {
			return cacheTimeline(w, samples, "cache-dirty")
		}},
		{"cache_hit_ratio_timeline.golden", func(w *strings.Builder) error {
			return cacheTimeline(w, samples, "cache-hit-ratio")
		}},
		{"cache_dirty_cdf.golden", func(w *strings.Builder) error {
			return cacheCDF(w, samples, "cache-dirty")
		}},
		{"cache_hit_ratio_cdf.golden", func(w *strings.Builder) error {
			return cacheCDF(w, samples, "cache-hit-ratio")
		}},
	}
	for _, c := range cases {
		var b strings.Builder
		if err := c.render(&b); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		gp := filepath.Join("testdata", c.golden)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(gp, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(gp)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%s: rendered plot differs from golden\ngot:\n%s", c.golden, b.String())
		}
	}

	// No tag-2 records → a clear error, not an empty plot.
	if err := cacheTimeline(&strings.Builder{}, nil, "cache-dirty"); err == nil {
		t.Error("cacheTimeline with no samples did not error")
	}
	if err := cacheCDF(&strings.Builder{}, nil, "cache-hit-ratio"); err == nil {
		t.Error("cacheCDF with no samples did not error")
	}
}
