package pablo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The trace codec serializes events to a line-oriented, self-describing
// text format in the spirit of Pablo's SDDF (Self-Defining Data Format):
// a header line declaring the record layout, then one record per line.
//
//	#SDDF paragonio-io-trace v1
//	IOEVT node op file offset size start dur mode
//	IOEVT 0 open "init.params" 0 0 1200 450000 M_UNIX
//
// Times are integer nanoseconds of virtual time. File names are
// Go-quoted so arbitrary names round-trip. The mode is a PFS constant
// name, or "-" for none.
//
// ReadTrace rejects what an Event cannot hold: a node outside int32, an
// op that is not a table-row name, and a mode that is neither "-" nor
// one of the six PFS names (M_UNIX … M_ASYNC).

const (
	codecMagic  = "#SDDF paragonio-io-trace v1"
	codecHeader = "IOEVT node op file offset size start dur mode"
	recordTag   = "IOEVT"
)

// WriteTrace serializes the trace to w in SDDF text form. Each record is
// appended into one reused line buffer, without fmt: this is the
// daemon's "sddf" response path.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic + "\n" + codecHeader + "\n"); err != nil {
		return err
	}
	line := make([]byte, 0, 128)
	for i := range t.events {
		line = appendRecord(line[:0], &t.events[i])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendRecord appends one IOEVT line, newline included, to buf.
func appendRecord(buf []byte, ev *Event) []byte {
	buf = append(buf, recordTag+" "...)
	buf = strconv.AppendInt(buf, int64(ev.Node), 10)
	buf = append(buf, ' ')
	buf = append(buf, ev.Op.String()...)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, ev.File)
	for _, v := range [...]int64{ev.Offset, ev.Size, int64(ev.Start), int64(ev.Duration)} {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, v, 10)
	}
	buf = append(buf, ' ')
	if ev.Mode == NoMode {
		buf = append(buf, '-')
	} else {
		buf = append(buf, ev.Mode.String()...)
	}
	return append(buf, '\n')
}

// ReadTrace parses a trace previously written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s != "" {
				return s, true
			}
		}
		return "", false
	}
	magic, ok := next()
	if !ok {
		return nil, fmt.Errorf("pablo: empty trace stream")
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("pablo: line %d: bad magic %q", line, magic)
	}
	header, ok := next()
	if !ok || header != codecHeader {
		return nil, fmt.Errorf("pablo: line %d: bad header %q", line, header)
	}
	t := NewTrace()
	for {
		rec, ok := next()
		if !ok {
			break
		}
		ev, err := parseRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("pablo: line %d: %w", line, err)
		}
		t.Record(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pablo: reading trace: %w", err)
	}
	return t, nil
}

func parseRecord(s string) (Event, error) {
	var ev Event
	if !strings.HasPrefix(s, recordTag+" ") {
		return ev, fmt.Errorf("record does not start with %s", recordTag)
	}
	rest := s[len(recordTag)+1:]

	// node
	nodeStr, rest, ok := cutField(rest)
	if !ok {
		return ev, fmt.Errorf("truncated record")
	}
	node, err := strconv.ParseInt(nodeStr, 10, 32)
	if err != nil {
		return ev, fmt.Errorf("bad node %q", nodeStr)
	}
	ev.Node = int32(node)

	// op
	opStr, rest, ok := cutField(rest)
	if !ok {
		return ev, fmt.Errorf("truncated record")
	}
	op, err := ParseOp(opStr)
	if err != nil {
		return ev, err
	}
	ev.Op = op

	// quoted file name
	if len(rest) == 0 || rest[0] != '"' {
		return ev, fmt.Errorf("expected quoted file name in %q", rest)
	}
	end := -1
	for i := 1; i < len(rest); i++ {
		if rest[i] == '\\' {
			i++
			continue
		}
		if rest[i] == '"' {
			end = i
			break
		}
	}
	if end < 0 {
		return ev, fmt.Errorf("unterminated file name")
	}
	file, err := strconv.Unquote(rest[:end+1])
	if err != nil {
		return ev, fmt.Errorf("bad file name: %v", err)
	}
	ev.File = file
	rest = strings.TrimLeft(rest[end+1:], " ")

	// offset size start dur
	var nums [4]int64
	for i := range nums {
		var f string
		f, rest, ok = cutField(rest)
		if !ok {
			return ev, fmt.Errorf("truncated record")
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return ev, fmt.Errorf("bad numeric field %q", f)
		}
		nums[i] = v
	}
	ev.Offset, ev.Size = nums[0], nums[1]
	ev.Start, ev.Duration = durationNS(nums[2]), durationNS(nums[3])

	// mode
	mode, rest, _ := cutField(rest)
	if mode == "" {
		return ev, fmt.Errorf("missing mode field")
	}
	if mode != "-" {
		if ev.Mode, err = ParseMode(mode); err != nil {
			return ev, err
		}
	}
	if strings.TrimSpace(rest) != "" {
		return ev, fmt.Errorf("trailing data %q", rest)
	}
	return ev, nil
}

// cutField splits off the next space-delimited field. The final field
// reports ok with an empty remainder.
func cutField(s string) (field, rest string, ok bool) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return "", "", false
	}
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", true
}

func durationNS(v int64) time.Duration { return time.Duration(v) }
