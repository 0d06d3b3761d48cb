// Package bloom implements the Bloom filter used by the profiler to estimate
// cache miss probabilities (Appendix A of the paper).
//
// The profiler hashes each cache-key probe of a window of Wd tuples into a
// filter with α·Wd bits; the number of set bits b estimates the number of
// distinct keys in the window, and b/Wd estimates miss_prob: every distinct
// key misses exactly once (its first occurrence) and hits thereafter.
package bloom

import (
	"math"

	"acache/internal/tuple"
)

// Filter is a fixed-size Bloom filter with k hash functions derived by
// double hashing from a single 64-bit hash (Kirsch–Mitzenmacher). Hashing is
// deterministically seeded, so fixed-seed workloads produce bit-identical
// profiler estimates across runs; flooding resistance is not a goal.
type Filter struct {
	bits  []uint64
	nbits uint64
	// mask is nbits−1 when nbits is a power of two, else 0: h & mask and
	// h % nbits are then the same position, and the AND keeps the 64-bit
	// divide off the shadow-tap path (the horizon filter is 2^16 bits).
	mask uint64
	k    int
	nset int // population count of set bits, maintained incrementally
}

// New creates a filter with at least nbits bits and k hash functions.
// k must be ≥ 1 and nbits ≥ 1.
func New(nbits int, k int) *Filter {
	if nbits < 1 {
		nbits = 1
	}
	if k < 1 {
		k = 1
	}
	words := (nbits + 63) / 64
	f := &Filter{
		bits:  make([]uint64, words),
		nbits: uint64(nbits),
		k:     k,
	}
	if f.nbits&(f.nbits-1) == 0 {
		f.mask = f.nbits - 1
	}
	return f
}

const (
	seed1 uint64 = 0x9ae16a3b2f90404f
	seed2 uint64 = 0xc949d7c7509e6557
)

// The byte hashing lives in the shared kernel (tuple.HashRawBytes and
// friends): the raw variants there are bit-identical to the implementation
// this package carried before deduplication, so profiler estimates — and
// every cached figure derived from them — are unchanged.

// HashBytes computes the double-hashing base pair (h1, h2) for a key. The
// pair is filter-independent — every filter derives its k probe positions
// from it — so a caller feeding the same key to several filters can hash
// once and pass the pair to AddHash on each.
func HashBytes(key []byte) (uint64, uint64) {
	h1 := tuple.MixWord(tuple.HashRawBytes(key, seed1), uint64(len(key)))
	h2 := tuple.MixWord(tuple.HashRawBytes(key, seed2), uint64(len(key)))
	return h1, h2 | 1
}

// AddHash inserts a key given its precomputed HashBytes pair and reports
// whether it was possibly present before the insertion (true = all its bits
// were already set). It lets a hot path that maintains several filters over
// the same key stream pay for one hash instead of one per filter.
func (f *Filter) AddHash(h1, h2 uint64) bool {
	return f.add(h1, h2)
}

func (f *Filter) add(h1, h2 uint64) bool {
	present := true
	for i := 0; i < f.k; i++ {
		pos := f.pos(h1 + uint64(i)*h2)
		word, mask := pos/64, uint64(1)<<(pos%64)
		if f.bits[word]&mask == 0 {
			present = false
			f.bits[word] |= mask
			f.nset++
		}
	}
	return present
}

func (f *Filter) pos(h uint64) uint64 {
	if f.mask != 0 {
		return h & f.mask
	}
	return h % f.nbits
}

// SetBits returns the number of set bits.
func (f *Filter) SetBits() int { return f.nset }

// Hashes returns the number of hash functions k.
func (f *Filter) Hashes() int { return f.k }

// Reset clears all bits, keeping the filter's allocation, so windows of
// probes reuse one filter.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.nset = 0
}

// EstimateDistinct estimates the number of distinct keys added since the last
// Reset using the standard Bloom-filter cardinality estimator
// n ≈ −(m/k)·ln(1 − b/m). For k = 1 and sparse filters this is close to the
// paper's simpler "b distinct keys" reading, but it stays accurate as the
// filter fills.
func (f *Filter) EstimateDistinct() float64 {
	m := float64(f.nbits)
	b := float64(f.nset)
	if b >= m {
		// Saturated: every probe looked distinct.
		return m
	}
	return -(m / float64(f.k)) * math.Log(1-b/m)
}
