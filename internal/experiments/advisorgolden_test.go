package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"paragonio/internal/policy"
)

var updateAdvisorGolden = flag.Bool("update-advisor-golden", false,
	"rewrite testdata/advisor.golden from the current advisor")

// TestAdvisorOutputGolden pins the advisor on every canonical run: each
// file's Profile, field by field (files sorted, floats to 12 significant
// digits), followed by the full WriteAdvice output. Classify and the
// cache advisor may be restructured freely; the bytes they produce may
// not move. Regenerate with
//
//	go test ./internal/experiments -run AdvisorOutputGolden -update-advisor-golden
//
// only when the advisor's output changes on purpose.
func TestAdvisorOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	var b bytes.Buffer
	for _, g := range goldenDigests {
		res, err := g.run(sharedSuite)
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		profiles := policy.Classify(res.Trace)
		fmt.Fprintf(&b, "=== %s\n", g.key)
		files := make([]string, 0, len(profiles))
		for f := range profiles {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			writeProfile(&b, profiles[f])
		}
		if err := policy.WriteAdvice(&b, profiles, policy.Options{}, policy.CacheOptions{}); err != nil {
			t.Fatalf("%s: WriteAdvice: %v", g.key, err)
		}
	}
	path := filepath.Join("testdata", "advisor.golden")
	if *updateAdvisorGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("advisor output differs from %s at line %d:\ngot:  %q\nwant: %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("advisor output has %d lines, %s %d", len(gl), path, len(wl))
	}
}

// writeProfile prints every field of p, a few related fields per line.
func writeProfile(b *bytes.Buffer, p *policy.Profile) {
	g := func(v float64) string { return fmt.Sprintf("%.12g", v) }
	fmt.Fprintf(b, "file %s\n", p.File)
	fmt.Fprintf(b, "  readers %v writers %v\n", p.Readers, p.Writers)
	fmt.Fprintf(b, "  reads %d writes %d seeks %d opens %d gopens %d bytes_written %d\n",
		p.Reads, p.Writes, p.Seeks, p.Opens, p.Gopens, p.BytesWritten)
	fmt.Fprintf(b, "  small_read %s small_write %s seq_read %s seeks_per_write %s\n",
		g(p.SmallReadFrac), g(p.SmallWriteFrac), g(p.SeqReadFrac), g(p.SeeksPerWrite))
	fmt.Fprintf(b, "  identical_reads %t interleaved_writes %t fixed_read_size %d unix_reads %t unix_writes %t\n",
		p.IdenticalReads, p.InterleavedWrites, p.FixedReadSize, p.UnixReads, p.UnixWrites)
	fmt.Fprintf(b, "  read_time %v write_time %v\n", p.ReadTime, p.WriteTime)
	fmt.Fprintf(b, "  read_ws %d write_ws %d per_node_read_ws %d read_ops_per_block %s\n",
		p.ReadWS, p.WriteWS, p.PerNodeReadWS, g(p.ReadOpsPerBlock))
	fmt.Fprintf(b, "  shared_read %s reuse_read %s max_reuse_gap %v max_reuse_span %v read_after_write %s\n",
		g(p.SharedReadFrac), g(p.ReuseReadFrac), p.MaxReuseGap, p.MaxReuseSpan, g(p.ReadAfterWriteFrac))
}
