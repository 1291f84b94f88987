package cache

import (
	"math"
	"testing"
	"time"

	"paragonio/internal/disk"
	"paragonio/internal/sim"
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

// FuzzClientTierOps drives the client tier with an operation sequence
// decoded from ops, three bytes per operation, over 3 nodes, 2 streams
// and a 4-block capacity. The low three bits of the first byte pick
// Read (then Install on a miss), Write, RecallStream, Flap,
// InvalidateLocal or Wait; its next bits pick the node and the stream.
// The second byte places the span (block 0–7 and an offset inside it)
// or sets the wait, the third its size (up to four blocks). After every
// operation the directory and the LRU lists must agree
// (checkClientIndex), StaleAverted must equal Recalls, and no hit may
// serve a version older than the block's last write.
func FuzzClientTierOps(f *testing.F) {
	f.Add([]byte{0, 0, 63, 8, 0, 63, 2, 0, 10, 0, 0, 63})                        // fill, peer fill, write, re-read
	f.Add([]byte{8, 0, 63, 6, 120, 0, 2, 0, 63, 3, 0, 0, 8, 0, 63})              // expired peer, write, stream recall, peer re-read
	f.Add([]byte{0, 9, 200, 8, 1, 7, 4, 0, 0, 5, 0, 0, 0x20, 3, 90, 16, 0, 255}) // evicting fills, flap, local invalidate
	f.Fuzz(func(t *testing.T, ops []byte) {
		const bs = clientBlockSize
		k, ct := newClientRig(t, ClientConfig{CapacityBytes: 4 * bs, LeaseTTL: 10 * time.Millisecond})
		written := make(map[blockID]uint64)
		ct.SetObserver(func(op ClientOp) {
			key := packBlock(op.Stream, op.Block)
			switch op.Kind {
			case ClientWrite:
				written[key] = op.Version
			case ClientHit:
				if op.Version < written[key] {
					t.Errorf("node %d hit block %d/%d at version %d, last written %d", op.Node, op.Stream, op.Block, op.Version, written[key])
				}
			}
		})
		k.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i+2 < len(ops); i += 3 {
				op, a, b := ops[i], ops[i+1], ops[i+2]
				node, sid := int(op>>3)%3, int32(op>>5)%2
				off, size := int64(a&7)*bs+int64(a>>3)*(bs/32), 1+int64(b)*(bs/64)
				switch op & 7 {
				case 0, 1:
					if _, hit := ct.Read(node, sid, off, size); !hit {
						ct.Install(node, sid, off, size)
					}
				case 2:
					ct.Write(node, sid, off, size)
				case 3:
					ct.RecallStream(node, sid)
				case 4:
					ct.Flap(node)
				case 5:
					ct.InvalidateLocal(node, sid)
				default:
					p.Wait(time.Duration(a) * 100 * time.Microsecond)
				}
				if err := checkClientIndex(ct); err != nil {
					t.Errorf("op %d: %v", i/3, err)
					return
				}
				if st := ct.Stats(); st.StaleAverted != st.Recalls {
					t.Errorf("op %d: StaleAverted %d != Recalls %d", i/3, st.StaleAverted, st.Recalls)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
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
