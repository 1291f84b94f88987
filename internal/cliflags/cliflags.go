// Package cliflags holds the flag parsing shared by the repository's
// commands (iotables, iobench, benchjson), so the flags mean the same
// thing — same syntax, same error text — everywhere they appear.
package cliflags

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// ParseJobs resolves a -j flag value: a positive integer or "auto"
// (all cores).
func ParseJobs(s string) (int, error) {
	if s == "auto" {
		return runtime.GOMAXPROCS(0), nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("invalid -j %q (want a positive integer or auto)", s)
	}
	return n, nil
}

// Only resolves a comma-separated -only flag value against the valid
// identifiers, returning the selected set. An empty value selects
// nothing (callers treat that as "everything"). Unknown identifiers are
// rejected with the full valid list, so a typo shows what was meant.
func Only(csv, what string, valid []string) (map[string]bool, error) {
	if csv == "" {
		return nil, nil
	}
	ok := make(map[string]bool, len(valid))
	for _, v := range valid {
		ok[v] = true
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(csv, ",") {
		id = strings.TrimSpace(id)
		if !ok[id] {
			return nil, fmt.Errorf("unknown %s %q (valid: %s)", what, id, strings.Join(valid, ", "))
		}
		wanted[id] = true
	}
	return wanted, nil
}

// ParseAddr validates a -addr flag value: a TCP listen address in
// host:port form. The host may be empty (":8080" listens on every
// interface) and the port may be 0 (the kernel picks a free one — the
// smoke scripts' idiom); a bare port or a bare host is rejected.
func ParseAddr(s string) (string, error) {
	_, port, err := net.SplitHostPort(s)
	if err != nil {
		return "", fmt.Errorf("invalid -addr %q (want host:port, e.g. :8080)", s)
	}
	if n, err := strconv.Atoi(port); err != nil || n < 0 || n > 65535 {
		return "", fmt.Errorf("invalid -addr %q (want host:port, e.g. :8080)", s)
	}
	return s, nil
}

// ParseTimeout resolves a -timeout flag value: a positive Go duration
// ("30s", "2m") bounding how long one request may hold the engine.
func ParseTimeout(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid -timeout %q (want a positive duration, e.g. 30s)", s)
	}
	return d, nil
}

// Sweep validates a -sweep flag value against the valid dimensions.
// Unknown values are rejected with the full valid list, matching the
// Only error shape, so a typo shows what was meant.
func Sweep(s string, valid []string) error {
	for _, v := range valid {
		if s == v {
			return nil
		}
	}
	return fmt.Errorf("unknown sweep %q (valid: %s)", s, strings.Join(valid, ", "))
}
