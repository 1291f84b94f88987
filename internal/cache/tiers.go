package cache

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/disk"
)

// Tiers is the unified configuration of the what-if storage hierarchy —
// the one struct pfs and core take whole, replacing the previous
// arrangement where each layer mirrored a bare *Config field (and would
// have had to grow one per tier as the hierarchy deepened).
//
// Every tier defaults to nil: the paper's machine had none of them, so
// canonical runs stay bit-identical to the golden digests.
type Tiers struct {
	// IONode, when non-nil, installs a buffer cache on every I/O node
	// (write-behind, read-ahead — the server-side tier).
	IONode *Config
	// Client, when non-nil, installs a lease-coherent cache on every
	// compute node in front of the PFS data path (the client tier).
	Client *ClientConfig
	// Log, when non-nil, installs a per-compute-node log-structured
	// write buffer: appends absorb write bursts at memory speed and a
	// background drain writes them through to the PFS (the host-side
	// burst-buffer tier; see LogTier).
	Log *LogConfig
}

// Enabled reports whether any tier is configured.
func (t Tiers) Enabled() bool { return t.IONode != nil || t.Client != nil || t.Log != nil }

// WithDefaults fills each configured tier's zero fields — the I/O-node
// tier against the PFS stripe unit and the backing array, the client
// tier against its own documented defaults — and validates the result.
func (t Tiers) WithDefaults(blockSize int64, d disk.Params) (Tiers, error) {
	if t.IONode != nil {
		cc, err := t.IONode.WithDefaults(blockSize, d)
		if err != nil {
			return Tiers{}, err
		}
		t.IONode = &cc
	}
	if t.Client != nil {
		cc, err := t.Client.WithDefaults()
		if err != nil {
			return Tiers{}, err
		}
		t.Client = &cc
	}
	if t.Log != nil {
		lc, err := t.Log.WithDefaults()
		if err != nil {
			return Tiers{}, err
		}
		t.Log = &lc
	}
	return t, nil
}

// DefaultClientTTL is re-exported for callers building ladders of
// lease-lifetime variants around the default.
const DefaultClientTTL = 500 * time.Millisecond

// String renders the configured tiers compactly and deterministically —
// the form the advisor prints and docs/ADVISOR.md pins, e.g.
// "ionode{wb=on ra=off cap=4MB} + client{cap=8MB ttl=12m0s}" or
// "log{drain=50ms cap=8MB}".
func (t Tiers) String() string {
	if !t.Enabled() {
		return "none (paper default)"
	}
	var parts []string
	if c := t.IONode; c != nil {
		seg := fmt.Sprintf("ionode{wb=%s ra=%s", onOff(c.WriteBehind), depth(c.ReadAhead))
		if c.CapacityBytes > 0 {
			seg += " cap=" + FormatSize(c.CapacityBytes)
		}
		if c.FlushDeadline > 0 {
			seg += fmt.Sprintf(" deadline=%v", c.FlushDeadline)
		}
		parts = append(parts, seg+"}")
	}
	if c := t.Client; c != nil {
		seg := "client{"
		if c.CapacityBytes > 0 {
			seg += "cap=" + FormatSize(c.CapacityBytes) + " "
		}
		if c.LeaseTTL > 0 {
			seg += fmt.Sprintf("ttl=%v", c.LeaseTTL)
		} else {
			seg += fmt.Sprintf("ttl=%v (default)", DefaultClientTTL)
		}
		parts = append(parts, seg+"}")
	}
	if c := t.Log; c != nil {
		seg := "log{"
		if c.DrainDeadline > 0 {
			seg += fmt.Sprintf("drain=%v", c.DrainDeadline)
		} else {
			seg += fmt.Sprintf("drain=%v", DefaultLogDrainDeadline)
		}
		if c.CapacityBytes > 0 {
			seg += " cap=" + FormatSize(c.CapacityBytes)
		}
		parts = append(parts, seg+"}")
	}
	return strings.Join(parts, " + ")
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func depth(n int) string {
	if n <= 0 {
		return "off"
	}
	return fmt.Sprintf("%d", n)
}

// FormatSize renders a byte count in binary units — whole ("64KB",
// "4MB") when exact, one decimal otherwise ("10.2MB").
func FormatSize(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
