package tuple

import "encoding/binary"

// Shared seeded hash kernel. Every fixed-seed hash in the engine — the
// open-addressing stores and indexes (HashOf and friends in tuple.go), the
// profiler's Bloom estimators, and the fingerprint filter package — mixes
// words through the same multiply-xor finalizer so one kernel serves them
// all. Two byte-level variants exist on purpose:
//
//   - HashBytes (tuple.go) consumes whole 8-byte words and folds the word
//     count in as a finalizer — the variant for packed keys, which are always
//     a multiple of 8 bytes.
//   - HashRawBytes below consumes arbitrary-length input with a zero-padded
//     tail and *no* length finalizer — the Bloom-filter variant, whose
//     callers fold the length themselves via MixWord so the two
//     double-hashing seeds share one pass over the bytes.
//
// The raw variant must stay bit-identical to the kernel internal/bloom
// carried before it was deduplicated here: profiler estimates (and therefore
// every cached figure) depend on the exact bit patterns.

// MixWord folds one 64-bit word into hash state h with the splitmix64-style
// multiply-xor finalizer used across the engine. Every step is invertible
// (xor, multiply by an odd constant, xorshift), so for a fixed h it is a
// bijection of v and one-column HashOf never collides. The relation indexes
// rely on that to confirm a one-column key on its hash alone; a change here
// must keep it.
func MixWord(h, v uint64) uint64 {
	h ^= v
	h *= hashMul1
	h ^= h >> 33
	h *= hashMul2
	h ^= h >> 29
	return h
}

// HashRawBytes hashes arbitrary bytes: 8-byte little-endian words with a
// zero-padded tail and no length finalizer (callers fold the length in via
// MixWord when they need it).
func HashRawBytes(b []byte, seed uint64) uint64 {
	h := seed
	for len(b) >= 8 {
		h = MixWord(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	n := len(b)
	if n > 0 {
		var v uint64
		for j := 0; j < n; j++ {
			v |= uint64(b[j]) << (8 * j)
		}
		h = MixWord(h, v)
	}
	return h
}
