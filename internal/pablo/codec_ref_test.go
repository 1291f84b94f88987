package pablo_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"

	"paragonio/internal/experiments"
	"paragonio/internal/pablo"
)

// fmtWriteTrace is WriteTrace as it was first spelled, one fmt.Fprintf
// per record. It is the reference the appending encoder must match byte
// for byte.
func fmtWriteTrace(w io.Writer, t *pablo.Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#SDDF paragonio-io-trace v1")
	fmt.Fprintln(bw, "IOEVT node op file offset size start dur mode")
	for _, ev := range t.Events() {
		mode := ev.Mode.String()
		if mode == "" {
			mode = "-"
		}
		fmt.Fprintf(bw, "%s %d %s %s %d %d %d %d %s\n",
			"IOEVT", ev.Node, ev.Op, strconv.Quote(ev.File),
			ev.Offset, ev.Size, int64(ev.Start), int64(ev.Duration), mode,
		)
	}
	return bw.Flush()
}

// TestWriteTraceMatchesFmt checks WriteTrace against the fmt reference
// over the PRISM C and ethylene C traces and a hand-built trace of edge
// cases (escapes, non-ASCII and empty names, negative and extreme
// values, no mode).
func TestWriteTraceMatchesFmt(t *testing.T) {
	s := experiments.NewSuite(1)
	prism, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	eth, err := s.Ethylene("C")
	if err != nil {
		t.Fatal(err)
	}
	edge := pablo.NewTrace()
	edge.Record(pablo.Event{Node: -1 << 31, Op: pablo.OpSeek, File: "weird \"name\"\\\t\né\x00",
		Offset: -1 << 63, Size: 1<<63 - 1, Start: -time.Second, Duration: 0})
	edge.Record(pablo.Event{Node: 1<<31 - 1, Op: pablo.OpClose, Mode: pablo.ModeLog})
	for name, tr := range map[string]*pablo.Trace{"prism/C": prism.Trace, "escat/eth/C": eth.Trace, "edge": edge} {
		var got, want bytes.Buffer
		if err := pablo.WriteTrace(&got, tr); err != nil {
			t.Fatal(err)
		}
		if err := fmtWriteTrace(&want, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteTrace differs from the fmt reference (%d vs %d bytes)", name, got.Len(), want.Len())
		}
	}
}
