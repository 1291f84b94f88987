package cache

import "fmt"

// Both block tiers key resident blocks by one packed integer instead of a
// (file, block index) pair, so the per-block map lookups on their hot
// paths hash and compare eight bytes, not a string. The stream id is the
// dense file id pfs assigns each file at creation; the id and the block
// index share one uint64.
//
// Key bounds: the low blockIdxBits bits hold the block index, the rest
// the stream id, so a tier addresses up to 2^40 blocks per stream (4 PB
// at the client tier's 4 KB default, 64 PB at a 64 KB stripe unit) and
// up to 2^24 distinct streams. An index or a stream id past either bound
// panics instead of aliasing another block; in process context the
// kernel returns that panic from Run as a *sim.PanicError.
const (
	blockIdxBits = 40
	maxBlockIdx  = 1<<blockIdxBits - 1
	maxStreams   = 1 << (64 - blockIdxBits)
)

// blockID is one block's packed key: stream id above blockIdxBits, block
// index below.
type blockID uint64

func packBlock(stream int32, idx int64) blockID {
	return blockID(uint64(stream)<<blockIdxBits | uint64(idx))
}

func (k blockID) stream() int32 { return int32(k >> blockIdxBits) }
func (k blockID) idx() int64    { return int64(k & maxBlockIdx) }

// checkSpan panics unless every block index in [first, last] fits a key.
func checkSpan(first, last int64) {
	if first < 0 || last > maxBlockIdx {
		panic(fmt.Sprintf("cache: block span [%d, %d] outside the packed key's range [0, 2^%d)", first, last, blockIdxBits))
	}
}

// checkStream panics unless stream id fits a key.
func checkStream(id int32) {
	if id < 0 || id >= maxStreams {
		panic(fmt.Sprintf("cache: stream id %d outside the packed key's range [0, 2^%d)", id, 64-blockIdxBits))
	}
}
