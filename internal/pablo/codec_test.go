package pablo

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.Record(Event{Node: 0, Op: OpOpen, File: "init.params", Start: 1200,
		Duration: 450000, Mode: ModeUnix})
	tr.Record(Event{Node: 127, Op: OpRead, File: "quad stage/file 0",
		Offset: 131072, Size: 131072, Start: time.Second, Duration: time.Millisecond,
		Mode: ModeRecord})
	tr.Record(Event{Node: 3, Op: OpSeek, File: `weird "name"\with\escapes`,
		Offset: 42, Start: 2 * time.Second, Duration: time.Microsecond})
	tr.Record(Event{Node: 1, Op: OpClose, File: "", Start: 3 * time.Second})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round-trip Len = %d, want %d", got.Len(), tr.Len())
	}
	for i, want := range tr.Events() {
		if got.Events()[i] != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got.Events()[i], want)
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, NewTrace()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad magic":       "#SDDF other v9\n" + codecHeader + "\n",
		"missing header":  codecMagic + "\n",
		"wrong header":    codecMagic + "\nIOEVT something else\n",
		"bad record tag":  codecMagic + "\n" + codecHeader + "\nNOPE 1 read \"f\" 0 0 0 0 -\n",
		"bad op":          codecMagic + "\n" + codecHeader + "\nIOEVT 1 frobnicate \"f\" 0 0 0 0 -\n",
		"bad node":        codecMagic + "\n" + codecHeader + "\nIOEVT x read \"f\" 0 0 0 0 -\n",
		"unquoted file":   codecMagic + "\n" + codecHeader + "\nIOEVT 1 read f 0 0 0 0 -\n",
		"unterminated":    codecMagic + "\n" + codecHeader + "\nIOEVT 1 read \"f 0 0 0 0 -\n",
		"truncated":       codecMagic + "\n" + codecHeader + "\nIOEVT 1 read \"f\" 0 0\n",
		"bad number":      codecMagic + "\n" + codecHeader + "\nIOEVT 1 read \"f\" zero 0 0 0 -\n",
		"trailing fields": codecMagic + "\n" + codecHeader + "\nIOEVT 1 read \"f\" 0 0 0 0 - extra\n",
		"unknown mode":    codecMagic + "\n" + codecHeader + "\nIOEVT 1 read \"f\" 0 0 0 0 M_FOO\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(input)); err == nil {
				t.Fatalf("ReadTrace accepted %q", input)
			}
		})
	}
}

// TestCodecNodeRange checks the node field's int32 bounds: both ends
// parse, one past either end is rejected rather than wrapped.
func TestCodecNodeRange(t *testing.T) {
	for _, tc := range []struct {
		node string
		want int32
		ok   bool
	}{
		{"2147483647", 1<<31 - 1, true},
		{"-2147483648", -1 << 31, true},
		{"2147483648", 0, false},
		{"-2147483649", 0, false},
	} {
		text := codecMagic + "\n" + codecHeader + "\nIOEVT " + tc.node + " read \"f\" 0 0 0 0 -\n"
		tr, err := ReadTrace(strings.NewReader(text))
		if !tc.ok {
			if err == nil {
				t.Errorf("node %s: accepted as %d", tc.node, tr.Events()[0].Node)
			}
			continue
		}
		if err != nil {
			t.Errorf("node %s: %v", tc.node, err)
		} else if got := tr.Events()[0].Node; got != tc.want {
			t.Errorf("node %s parsed to %d", tc.node, got)
		}
	}
}

// TestCodecDashIsNoMode checks that "-" in the mode field reads as
// NoMode (the PFS names round-trip in TestCodecRoundTripProperty).
func TestCodecDashIsNoMode(t *testing.T) {
	text := codecMagic + "\n" + codecHeader + "\nIOEVT 0 read \"f\" 0 0 0 0 -\n"
	tr, err := ReadTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m := tr.Events()[0].Mode; m != NoMode {
		t.Fatalf(`"-" parsed to %v, want NoMode`, m)
	}
}

func TestCodecSkipsBlankLines(t *testing.T) {
	text := codecMagic + "\n\n" + codecHeader + "\n\nIOEVT 1 read \"f\" 0 8 9 10 M_ASYNC\n\n"
	tr, err := ReadTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Events()[0].Mode != ModeAsync {
		t.Fatalf("parsed %+v", tr.Events())
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(node uint8, opIdx uint8, file string, off, size uint32, start, dur uint32, modeIdx uint8) bool {
		modes := []Mode{NoMode, ModeUnix, ModeRecord, ModeAsync, ModeGlobal, ModeSync, ModeLog}
		in := Event{
			Node:     int32(node),
			Op:       Op(int(opIdx) % int(numOps)),
			File:     strings.ReplaceAll(file, "\n", " "), // names are single-line
			Offset:   int64(off),
			Size:     int64(size),
			Start:    time.Duration(start),
			Duration: time.Duration(dur),
			Mode:     modes[int(modeIdx)%len(modes)],
		}
		tr := NewTrace()
		tr.Record(in)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			return false
		}
		out, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		return out.Len() == 1 && out.Events()[0] == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecLargeTrace(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 10000; i++ {
		tr.Record(Event{Node: int32(i % 128), Op: Op(i % int(numOps)), File: "bulk",
			Offset: int64(i) * 64, Size: 64, Start: time.Duration(i) * time.Microsecond,
			Duration: time.Microsecond, Mode: ModeAsync})
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tr.Len())
	}
}
