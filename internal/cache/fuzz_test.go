package cache

import (
	"fmt"
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

// FuzzIONodeCacheOps drives a 4-block write-behind I/O-node cache with
// read-ahead 2 from one client process. The low bit of mode picks the
// high-water + idle policy or a 5 ms deadline; its next two bits pick the
// high-water mark (1–3 blocks, or 100: never). ops is decoded two bytes
// per operation: the first byte's low two bits pick a write, a read or a
// wait (3 also reads), its next three bits the block (0–7) and its sixth
// bit the stream; the second byte sets the size (up to four blocks) or
// the wait (up to 25.5 ms). After every operation the dirty list must
// agree with the blocks (checkDirtyList), and at the run's end the
// flusher must have drained every dirty block.
func FuzzIONodeCacheOps(f *testing.F) {
	// The deadline reproduction on 4 blocks: fill, touch block 0, evict
	// dirty block 1 with a forced flush, write block 1 again 2.5 ms
	// later, then let the deadlines expire.
	f.Add(uint8(7), []byte{0, 0, 4, 0, 8, 0, 12, 0, 1, 0, 16, 0, 2, 25, 4, 0, 2, 30, 2, 30})
	f.Add(uint8(0), []byte{0, 255, 8, 255, 1, 0, 2, 200, 32, 64, 33, 64, 5, 9, 2, 255})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 4, 0, 2, 60, 4, 0, 8, 0, 12, 0, 16, 0, 20, 0})
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		deadline := time.Duration(0)
		if mode&1 != 0 {
			deadline = 5 * time.Millisecond
		}
		hw := int(mode>>1) & 3
		if hw == 0 {
			hw = 100
		}
		r := newRig(t, func(c *Config) {
			c.CapacityBytes = 4 * testBlock
			c.ReadAhead = 2
			c.DirtyHighWater = hw
			c.FlushDeadline = deadline
		})
		r.do(t, func(p *sim.Proc, access func(stream int32, off, size int64, write bool)) {
			for i := 0; i+1 < len(ops); i += 2 {
				op, b := ops[i], ops[i+1]
				off, size := int64(op>>2&7)*testBlock, 1+int64(b)*(testBlock/64)
				switch op & 3 {
				case 0:
					access(int32(op>>5&1), off, size, true)
				case 2:
					p.Wait(time.Duration(b) * 100 * time.Microsecond)
				default:
					access(int32(op>>5&1), off, size, false)
				}
				if err := checkDirtyList(r.c); err != nil {
					t.Errorf("op %d: %v", i/2, err)
					return
				}
			}
		})
		if err := checkDirtyList(r.c); err != nil {
			t.Fatalf("run end: %v", err)
		}
		if d := r.c.Stats().Dirty; d != 0 {
			t.Fatalf("Dirty = %d at the run's end, want 0", d)
		}
	})
}

// checkDirtyList reports the first way c's dirty list disagrees with its
// blocks: every listed block is resident and dirty, dirtyAt never
// decreases along the list, the back links mirror the forward ones, the
// list holds exactly dirtyCount blocks and every dirty resident block,
// and the spare block holds no dirty links.
func checkDirtyList(c *Cache) error {
	n := 0
	var prev *block
	for b := c.oldest; b != nil; prev, b = b, b.dnext {
		if n++; n > len(c.blocks) {
			return fmt.Errorf("dirty list longer than the %d resident blocks", len(c.blocks))
		}
		if c.blocks[b.key] != b {
			return fmt.Errorf("listed block %d/%d is not resident", b.key.stream(), b.key.idx())
		}
		if !b.dirty {
			return fmt.Errorf("listed block %d/%d is clean", b.key.stream(), b.key.idx())
		}
		if b.dprev != prev {
			return fmt.Errorf("block %d/%d: back link does not mirror the forward link", b.key.stream(), b.key.idx())
		}
		if prev != nil && b.dirtyAt < prev.dirtyAt {
			return fmt.Errorf("block %d/%d dirty at %v after a block dirty at %v", b.key.stream(), b.key.idx(), b.dirtyAt, prev.dirtyAt)
		}
	}
	if c.newest != prev {
		return fmt.Errorf("list tail is not the last listed block")
	}
	if n != c.dirtyCount {
		return fmt.Errorf("%d blocks listed, dirtyCount %d", n, c.dirtyCount)
	}
	dirty := 0
	for _, b := range c.blocks {
		if b.dirty {
			dirty++
		}
	}
	if dirty != n {
		return fmt.Errorf("%d dirty resident blocks, %d listed", dirty, n)
	}
	if s := c.spare; s != nil && (s.dirty || s.dprev != nil || s.dnext != nil) {
		return fmt.Errorf("spare block %d/%d holds dirty links", s.key.stream(), s.key.idx())
	}
	return nil
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
