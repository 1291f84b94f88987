package pablo

import (
	"math/rand"
	"testing"
	"time"
)

// TestTallyMatchesTrace feeds a Tally and a Trace the same random event
// streams and requires every total a Tally keeps to equal the Trace's:
// the event count, Digest, TotalIOTime, and each file's OpStats from
// FileLifetimes. The streams mix events with no file, which count in
// every total but no file's, and out-of-range ops, which OpStats.Add
// skips but which still name their file.
func TestTallyMatchesTrace(t *testing.T) {
	files := []string{"", "", "escat/quad.0", "escat/out.3", "prism/stats.1", "a b"}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var tally Tally
		tr := NewTrace()
		n := rng.Intn(3000)
		if round == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			ev := Event{
				Start:    time.Duration(rng.Int63n(int64(time.Hour))),
				Duration: time.Duration(rng.Int63n(int64(time.Second))),
				Offset:   rng.Int63n(1<<40) - 1<<20,
				Size:     rng.Int63n(1 << 22),
				File:     files[rng.Intn(len(files))],
				Node:     int32(rng.Intn(1024)) - 8,
				Op:       Op(rng.Intn(int(numOps) + 2)),
				Mode:     Mode(rng.Intn(len(modeNames))),
			}
			tally.Record(ev)
			tr.Record(ev)
		}
		if tally.Len() != tr.Len() || tally.Digest() != tr.Digest() || tally.TotalIOTime() != tr.TotalIOTime() {
			t.Fatalf("round %d: tally %d events %#016x %v, trace %d events %#016x %v", round,
				tally.Len(), tally.Digest(), tally.TotalIOTime(), tr.Len(), tr.Digest(), tr.TotalIOTime())
		}
		lts := FileLifetimes(tr)
		got := tally.Files()
		if len(got) != len(lts) {
			t.Fatalf("round %d: tally has %d files, FileLifetimes %d", round, len(got), len(lts))
		}
		for name, lt := range lts {
			if st, ok := got[name]; !ok || st != lt.OpStats {
				t.Fatalf("round %d: %q: tally %+v, FileLifetimes %+v", round, name, st, lt.OpStats)
			}
		}
		tr.Release()
	}
}
