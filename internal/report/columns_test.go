package report_test

import (
	"strconv"
	"strings"
	"testing"

	"paragonio/internal/iobench"
	"paragonio/internal/report"
)

// TestColumns renders a kernel sweep through its registered columns, and
// a row type of its own through the same generic path.
func TestColumns(t *testing.T) {
	sw, ok := iobench.LookupSweep("modes")
	if !ok {
		t.Fatal("sweep modes not registered")
	}
	rs, err := sw.Run(iobench.Params{
		Kernel: iobench.StridedReload, Nodes: 8, Request: 64 << 10, Volume: 4 << 20, Cycles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := report.Columns(&b, "reload", rs, sw.Columns); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "M_ASYNC") || !strings.Contains(out, "MB/s") {
		t.Fatalf("table missing content:\n%s", out)
	}

	type opCount struct {
		op string
		n  int
	}
	b.Reset()
	err = report.Columns(&b, "", []opCount{{"open", 3}, {"read", 12}}, []report.Column[opCount]{
		{Head: "op", Cell: func(r opCount) string { return r.op }},
		{Head: "count", Cell: func(r opCount) string { return strconv.Itoa(r.n) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "op    count\n-------------\nopen  3\nread  12\n"
	if got := b.String(); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}
