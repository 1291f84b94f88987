package pablo

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadTrace hardens the text codec against malformed input: any
// byte stream must either parse into a trace that re-serializes to the
// same events — every field of every event, and so the same digest —
// or return an error, never panic.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	tr := NewTrace()
	tr.Record(Event{Node: 1, Op: OpRead, File: "a b", Offset: 3, Size: 4,
		Start: time.Second, Duration: time.Millisecond, Mode: ModeUnix})
	if err := WriteTrace(&seed, tr); err != nil {
		f.Fatal(err)
	}
	head := codecMagic + "\n" + codecHeader + "\n"
	f.Add(seed.String())
	f.Add("")
	f.Add(head)
	f.Add(head + "IOEVT 0 read \"f\" 0 0 0 0 -\n")
	f.Add(head + "IOEVT x y z\n")
	f.Add(head + "IOEVT 2147483648 read \"f\" 0 0 0 0 -\n")
	f.Add(head + "IOEVT -2147483649 read \"f\" 0 0 0 0 -\n")
	f.Add(head + "IOEVT 1 read \"f\" 0 0 0 0 M_FOO\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
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
		for i, want := range got.Events() {
			if ev := again.Events()[i]; ev != want {
				t.Fatalf("event %d round-tripped to %+v, want %+v", i, ev, want)
			}
		}
		if a, b := got.Digest(), again.Digest(); a != b {
			t.Fatalf("round-trip changed digest: %#x -> %#x", a, b)
		}
	})
}
