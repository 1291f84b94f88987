package pablo

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadTrace hardens the text codec against malformed input: any
// byte stream must either parse into a trace that re-serializes cleanly
// or return an error — never panic.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	tr := NewTrace()
	tr.Record(Event{Node: 1, Op: OpRead, File: "a b", Offset: 3, Size: 4,
		Start: time.Second, Duration: time.Millisecond, Mode: "M_UNIX"})
	if err := WriteTrace(&seed, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add(codecMagic + "\n" + codecHeader + "\n")
	f.Add(codecMagic + "\n" + codecHeader + "\nIOEVT 0 read \"f\" 0 0 0 0 -\n")
	f.Add(codecMagic + "\n" + codecHeader + "\nIOEVT x y z\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, got); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round-trip changed length: %d -> %d", got.Len(), again.Len())
		}
	})
}
