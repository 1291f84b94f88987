package cache

import (
	"math"
	"testing"
	"time"

	"paragonio/internal/disk"
)

// FuzzTiersValidate hardens the tier validators: Tiers.WithDefaults and
// each tier's Validate never panic; a configuration WithDefaults accepts validates
// again, is a fixed point of WithDefaults, and renders deterministically.
// block is the stripe unit the I/O-node tier is resolved against.
func FuzzTiersValidate(f *testing.F) {
	// present: bit 0 I/O-node tier, bit 1 client tier, bit 2 log tier.
	f.Add(uint8(7), int64(64<<10), int64(0), true, 0, 0, 0, int64(0), int64(0),
		int64(0), int64(0), int64(0))
	f.Add(uint8(1), int64(64<<10), int64(32<<20), true, 4, 0, 8, int64(50*time.Millisecond), int64(30*time.Millisecond),
		int64(0), int64(0), int64(0))
	f.Add(uint8(2), int64(64<<10), int64(0), false, 0, 0, 0, int64(0), int64(0),
		int64(8<<20), int64(10*time.Minute), int64(0))
	f.Add(uint8(4), int64(64<<10), int64(0), false, 0, 0, 0, int64(0), int64(0),
		int64(0), int64(0), int64(512<<10))
	f.Add(uint8(3), int64(-1), int64(1), true, -1, -1, -1, int64(-1), int64(-1),
		int64(1), int64(-1), int64(-1))
	f.Add(uint8(3), int64(0), int64(32<<20), true, 0, 0, 0, int64(0), int64(0),
		int64(0), int64(0), int64(0))
	f.Add(uint8(1), int64(1<<40), int64(0), false, 0, 0, 0, int64(0), int64(0),
		int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, present uint8,
		block, ioCap int64, wb bool, ra, hw, batch int, idle, deadline int64,
		clCap, clTTL int64,
		logCap int64) {
		var in Tiers
		if present&1 != 0 {
			in.IONode = &Config{CapacityBytes: ioCap, WriteBehind: wb,
				ReadAhead: ra, DirtyHighWater: hw, FlushBatch: batch, IdleFlush: time.Duration(idle),
				FlushDeadline: time.Duration(deadline)}
		}
		if present&2 != 0 {
			in.Client = &ClientConfig{CapacityBytes: clCap, LeaseTTL: time.Duration(clTTL)}
		}
		if present&4 != 0 {
			in.Log = &LogConfig{CapacityBytes: logCap}
		}
		_ = validateTiers(in, block)
		_ = in.String()
		out, err := in.WithDefaults(block, disk.DefaultParams())
		if err != nil {
			return
		}
		if err := validateTiers(out, block); err != nil {
			t.Fatalf("accepted tiers fail Validate: %v\n%+v", err, out)
		}
		again, err := out.WithDefaults(block, disk.DefaultParams())
		if err != nil {
			t.Fatalf("accepted tiers rejected on a second WithDefaults: %v", err)
		}
		if !sameTiers(out, again) {
			t.Fatalf("WithDefaults is not a fixed point:\n%s\n%s", out, again)
		}
		if out.String() != again.String() {
			t.Fatalf("String not deterministic: %q vs %q", out.String(), again.String())
		}
	})
}

// FuzzLogConfigValidate: LogConfig.WithDefaults never panics, and an
// accepted configuration validates again and is a fixed point.
func FuzzLogConfigValidate(f *testing.F) {
	f.Add(int64(0), 0, int64(0))
	f.Add(int64(8<<20), 8, int64(50*time.Millisecond))
	f.Add(int64(512<<10), 0, int64(0))
	f.Add(int64(-1), -1, int64(-1))
	f.Add(int64(1), 1, int64(1))
	f.Add(int64(math.MaxInt64), math.MaxInt, int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, capBytes int64, batch int, deadline int64) {
		in := LogConfig{CapacityBytes: capBytes, DrainBatch: batch, DrainDeadline: time.Duration(deadline)}
		_ = in.Validate()
		out, err := in.WithDefaults()
		if err != nil {
			return
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("accepted log config fails Validate: %v\n%+v", err, out)
		}
		again, err := out.WithDefaults()
		if err != nil || again != out {
			t.Fatalf("WithDefaults is not a fixed point: %+v -> %+v (%v)", out, again, err)
		}
	})
}

// validateTiers runs each configured tier's own Validate, the I/O-node
// tier against blocks of blockSize bytes; nil tiers are valid (off).
func validateTiers(t Tiers, blockSize int64) error {
	if t.IONode != nil {
		if err := t.IONode.Validate(blockSize); err != nil {
			return err
		}
	}
	if t.Client != nil {
		if err := t.Client.Validate(); err != nil {
			return err
		}
	}
	if t.Log != nil {
		return t.Log.Validate()
	}
	return nil
}

// sameTiers compares two Tiers by the configurations they point at.
func sameTiers(a, b Tiers) bool {
	return samePtr(a.IONode, b.IONode) && samePtr(a.Client, b.Client) && samePtr(a.Log, b.Log)
}

func samePtr[T comparable](x, y *T) bool {
	if x == nil || y == nil {
		return x == y
	}
	return *x == *y
}
