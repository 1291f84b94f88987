// Package faults is the simulator's injectable fault plane: a declarative
// Plan of degraded-mode scenarios — single-disk failures inside a RAID-3
// array, I/O-node crashes with stripe failover, slow-node stragglers, and
// flapping clients driving lease-recall storms — that the PFS arms as
// scheduled DES events before the run starts.
//
// Determinism contract. Every fault is an ordinary kernel event with a
// fixed virtual-time instant, armed in Plan order before any workload
// event is scheduled, so sequence numbers are allocated identically on
// every run. Fault events only flip state (disk degraded mode and
// service-time factor, routing tables, mesh multipliers, client-tier
// recalls) and emit no trace events. Degraded runs are therefore
// bit-reproducible and carry their own golden trace digests, and an
// empty Plan is byte-identical to a healthy run.
package faults

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Kind names one fault scenario.
type Kind string

const (
	// DiskFail marks one data drive of the target I/O node's RAID-3
	// array failed at At: reads and writes run in degraded mode — every
	// request pays a parity-reconstruction pass and the array's transfer
	// rate drops to the surviving data drives — until Until (0 = no
	// repair).
	DiskFail Kind = "disk-fail"
	// NodeCrash kills the target I/O node at At: stripes that map to it
	// re-route to the next surviving node in the ring (which absorbs the
	// doubled load through its FIFO queue and pays its own mesh
	// distance) until Until (0 = no failover back). Requests already in
	// flight at the crash instant drain on the old node.
	NodeCrash Kind = "node-crash"
	// Straggler multiplies the target I/O node's disk service times and
	// the mesh transfers addressed to it by Factor from At to Until
	// (0 = for the rest of the run).
	Straggler Kind = "straggler"
	// ClientFlap makes compute node Node renegotiate every open stream
	// Count times, Period apart, starting at At — each flap recalls all
	// valid leases through the client tier (cache.ClientTier), the
	// lease-recall storm a crash-looping client inflicts on its peers.
	// Requires the client cache tier to be configured.
	ClientFlap Kind = "client-flap"
)

// Valid reports whether k names a known fault kind.
func (k Kind) Valid() bool {
	switch k {
	case DiskFail, NodeCrash, Straggler, ClientFlap:
		return true
	}
	return false
}

// Fault is one scheduled fault. Fields beyond Kind and At apply only to
// the kinds that document them; Validate rejects stray settings so a
// misdirected field is never silently ignored.
type Fault struct {
	Kind Kind
	// At is the injection instant in virtual time from the start of the
	// run.
	At time.Duration
	// Until, when positive, is the recovery instant (disk repaired, node
	// rejoined, straggler back to speed). It must be after At and does
	// not apply to ClientFlap.
	Until time.Duration
	// IONode is the target I/O node (DiskFail, NodeCrash, Straggler).
	IONode int
	// Node is the flapping compute node (ClientFlap).
	Node int
	// Factor is the straggler's latency multiplier (> 1).
	Factor float64
	// Period is the interval between flaps (ClientFlap with Count > 1).
	Period time.Duration
	// Count is how many flaps fire (ClientFlap; default 1).
	Count int
}

// maxFlaps caps a client-flap fault's Count. The PFS arms every flap as
// a kernel event before the run starts, so the count bounds work done
// outside any run deadline; the largest series the repository itself
// declares is 7,500 flaps.
const maxFlaps = 1 << 16

// Plan is an ordered list of faults for one run. The zero value is the
// healthy machine; arming order is Plan order, which fixes event
// sequence allocation and keeps degraded runs deterministic.
type Plan struct {
	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

// Validate checks every fault against an I/O-node count (ioNodes <= 0
// skips the range checks — callers that don't know the topology yet can
// still validate shape). It also rejects plans whose NodeCrash faults
// could leave no surviving I/O node.
func (p Plan) Validate(ioNodes int) error {
	crashed := map[int]bool{}
	for i, f := range p.Faults {
		if err := f.validate(ioNodes); err != nil {
			return fmt.Errorf("faults: fault %d: %w", i, err)
		}
		if f.Kind == NodeCrash {
			if crashed[f.IONode] {
				return fmt.Errorf("faults: fault %d: I/O node %d crashes twice", i, f.IONode)
			}
			crashed[f.IONode] = true
		}
	}
	if ioNodes > 0 && len(crashed) >= ioNodes {
		return fmt.Errorf("faults: all %d I/O nodes crash; at least one must survive", ioNodes)
	}
	return nil
}

func (f Fault) validate(ioNodes int) error {
	if !f.Kind.Valid() {
		return fmt.Errorf("unknown kind %q (want disk-fail, node-crash, straggler, or client-flap)", string(f.Kind))
	}
	if f.At < 0 {
		return fmt.Errorf("%s: negative injection time %v", f.Kind, f.At)
	}
	if f.Until != 0 && f.Until <= f.At {
		return fmt.Errorf("%s: recovery at %v is not after injection at %v", f.Kind, f.Until, f.At)
	}
	targeted := f.Kind == DiskFail || f.Kind == NodeCrash || f.Kind == Straggler
	if targeted {
		if f.IONode < 0 || (ioNodes > 0 && f.IONode >= ioNodes) {
			return fmt.Errorf("%s: I/O node %d out of range [0,%d)", f.Kind, f.IONode, ioNodes)
		}
		if f.Node != 0 || f.Period != 0 || f.Count != 0 {
			return fmt.Errorf("%s: node/period/count apply only to client-flap", f.Kind)
		}
	}
	switch f.Kind {
	case Straggler:
		if !(f.Factor > 1) || math.IsInf(f.Factor, 1) {
			return fmt.Errorf("straggler: factor %g, need > 1 and finite", f.Factor)
		}
	case ClientFlap:
		if f.IONode != 0 || f.Factor != 0 {
			return fmt.Errorf("client-flap: ionode/factor apply only to I/O-node faults")
		}
		if f.Node < 0 {
			return fmt.Errorf("client-flap: negative node %d", f.Node)
		}
		if f.Count < 0 || f.Count > maxFlaps {
			return fmt.Errorf("client-flap: count %d outside [0, %d]", f.Count, maxFlaps)
		}
		if f.Period < 0 {
			return fmt.Errorf("client-flap: negative period %v", f.Period)
		}
		if f.Count > 1 && f.Period <= 0 {
			return fmt.Errorf("client-flap: count %d needs a positive period", f.Count)
		}
		if n := time.Duration(f.FlapCount() - 1); n > 0 && f.Period > (math.MaxInt64-f.At)/n {
			return fmt.Errorf("client-flap: last of %d flaps (at %v, every %v) overflows the virtual clock", f.Count, f.At, f.Period)
		}
		if f.Until != 0 {
			return fmt.Errorf("client-flap: until does not apply (use period and count)")
		}
	default:
		if f.Factor != 0 {
			return fmt.Errorf("%s: factor applies only to straggler", f.Kind)
		}
	}
	return nil
}

// FlapCount returns the number of flaps a ClientFlap fault fires
// (Count, defaulted to 1).
func (f Fault) FlapCount() int {
	if f.Count < 1 {
		return 1
	}
	return f.Count
}

// String renders the fault canonically — stable field order, only the
// fields its kind uses — so plans serialize deterministically into
// content addresses (experiments.ConfigKey).
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", string(f.Kind), int64(f.At))
	if f.Until != 0 {
		fmt.Fprintf(&b, "-%d", int64(f.Until))
	}
	switch f.Kind {
	case DiskFail, NodeCrash:
		fmt.Fprintf(&b, ",io=%d", f.IONode)
	case Straggler:
		fmt.Fprintf(&b, ",io=%d,x%g", f.IONode, f.Factor)
	case ClientFlap:
		fmt.Fprintf(&b, ",node=%d,period=%d,count=%d", f.Node, int64(f.Period), f.FlapCount())
	}
	return b.String()
}

// String renders the plan canonically: faults in order, ";"-joined, ""
// for the healthy machine.
func (p Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}
