package cliflags

import (
	"testing"
	"time"
)

func TestParseAddr(t *testing.T) {
	for _, good := range []string{":8080", "127.0.0.1:0", "localhost:9090", "[::1]:8080", ":0"} {
		if got, err := ParseAddr(good); err != nil || got != good {
			t.Errorf("ParseAddr(%q) = %q, %v", good, got, err)
		}
	}
	for _, bad := range []string{"", "8080", "localhost", "host:port", "1.2.3.4:99999", "a:b:c"} {
		_, err := ParseAddr(bad)
		if err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
			continue
		}
		// Pinned error text, in the ParseJobs style: scripts may match it.
		want := `invalid -addr "` + bad + `" (want host:port, e.g. :8080)`
		if err.Error() != want {
			t.Errorf("ParseAddr(%q) error %q, want %q", bad, err, want)
		}
	}
}

func TestParseTimeout(t *testing.T) {
	if d, err := ParseTimeout("90s"); err != nil || d != 90*time.Second {
		t.Errorf("ParseTimeout(90s) = %v, %v", d, err)
	}
	if d, err := ParseTimeout("2m"); err != nil || d != 2*time.Minute {
		t.Errorf("ParseTimeout(2m) = %v, %v", d, err)
	}
	for _, bad := range []string{"", "0", "0s", "-5s", "fast", "30"} {
		_, err := ParseTimeout(bad)
		if err == nil {
			t.Errorf("ParseTimeout(%q) accepted", bad)
			continue
		}
		want := `invalid -timeout "` + bad + `" (want a positive duration, e.g. 30s)`
		if err.Error() != want {
			t.Errorf("ParseTimeout(%q) error %q, want %q", bad, err, want)
		}
	}
}

func TestOnly(t *testing.T) {
	valid := []string{"table1", "table2", "figure1"}
	if got, err := Only("", "experiment", valid); err != nil || got != nil {
		t.Errorf("empty -only: %v, %v", got, err)
	}
	got, err := Only(" table2 ,figure1", "experiment", valid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got["table2"] || !got["figure1"] {
		t.Errorf("selection %v", got)
	}
	_, err = Only("tabel2", "experiment", valid)
	if err == nil {
		t.Fatal("typo accepted")
	}
	want := `unknown experiment "tabel2" (valid: table1, table2, figure1)`
	if err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

func TestSweep(t *testing.T) {
	valid := []string{"modes", "request", "cache"}
	if err := Sweep("cache", valid); err != nil {
		t.Error(err)
	}
	err := Sweep("caches", valid)
	if err == nil {
		t.Fatal("typo accepted")
	}
	// Pinned error text: like Only, a rejected -sweep lists every valid
	// dimension so a typo shows what was meant.
	want := `unknown sweep "caches" (valid: modes, request, cache)`
	if err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

func TestParseJobs(t *testing.T) {
	if n, err := ParseJobs("auto"); err != nil || n < 1 {
		t.Fatalf("ParseJobs(auto) = %d, %v", n, err)
	}
	if n, err := ParseJobs("4"); err != nil || n != 4 {
		t.Fatalf("ParseJobs(4) = %d, %v", n, err)
	}
	for _, bad := range []string{"", "0", "-2", "four"} {
		if _, err := ParseJobs(bad); err == nil {
			t.Errorf("ParseJobs(%q) accepted", bad)
		}
	}
}
