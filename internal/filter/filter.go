// Package filter implements a succinct fingerprint filter: a cuckoo filter
// (Fan et al., CoNEXT 2014) over 64-bit key hashes supporting Insert, Delete,
// and MayContain with no allocation on the probe path.
//
// The engine no longer uses it. The filters that fronted the relation indexes
// were deleted (DESIGN.md §20): a one-column index answers a guaranteed miss
// from one slot read, which the filter's two bucket loads did not beat. The
// package stays because the wall-clock benchmark's contact surface and its
// filter.* per-layer probes call it.
//
// Layout: each bucket is one uint64 holding four 16-bit fingerprint lanes
// (lane 0 in the low bits). A key hash h maps to fingerprint fp(h) — the top
// 16 bits, remapped away from zero, which marks an empty lane — and to two
// candidate buckets i1 = h & mask and i2 = i1 XOR (mix(fp) & mask), the
// partial-key cuckoo scheme: either bucket's index and the fingerprint
// recover the other bucket, so displaced fingerprints relocate without the
// original key. All derivations are fixed-seed deterministic, so cached
// figures stay reproducible.
//
// The filter is a multiset: inserting the same hash twice occupies two lanes
// and requires two deletes. An owner that inserts one fingerprint per
// resident key keeps membership tracking residency exactly, and MayContain ==
// false is a guaranteed miss.
package filter

import "acache/internal/tuple"

const (
	lanesPerBucket = 4
	laneBits       = 16
	laneMask       = (1 << laneBits) - 1

	// maxKicks bounds the cuckoo eviction walk on Insert. 64 displacement
	// steps are far beyond what a table below the ~95% load ceiling needs;
	// hitting the bound means the table is effectively full and the owner
	// must rebuild larger.
	maxKicks = 64

	// altSeed derives a fingerprint's alternate-bucket offset; fixed so
	// placement is deterministic across runs.
	altSeed uint64 = 0x71c67d1a5b3f08e9

	// lanePattern replicates a lane value across all four lanes; laneHigh
	// marks each lane's top bit (both serve the zero-lane bit trick).
	lanePattern uint64 = 0x0001000100010001
	laneHigh    uint64 = 0x8000800080008000
)

// Filter is a cuckoo filter over 64-bit key hashes. The zero value is not
// ready; use New. Not safe for concurrent use (the data path is
// single-goroutine by design).
type Filter struct {
	buckets []uint64
	mask    uint64
	kick    uint32 // deterministic victim-lane rotation for evictions
}

// New creates a filter sized for about capacity resident fingerprints:
// bucket count is the smallest power of two giving at least 4/3 lane
// headroom, so a full-capacity filter runs at ≤ 75% load.
func New(capacity int) *Filter {
	nb := 2
	for nb*lanesPerBucket*3 < capacity*4 {
		nb *= 2
	}
	return &Filter{buckets: make([]uint64, nb), mask: uint64(nb - 1)}
}

// fingerprintOf extracts the 16-bit fingerprint from a key hash, remapping
// zero (the empty-lane marker) to a fixed non-zero value.
func fingerprintOf(h uint64) uint16 {
	fp := uint16(h >> 48)
	if fp == 0 {
		fp = 0x9e37
	}
	return fp
}

// alt returns the other candidate bucket for fingerprint fp currently at
// bucket i. XOR-symmetric: alt(alt(i, fp), fp) == i.
func (f *Filter) alt(i uint64, fp uint16) uint64 {
	return i ^ (tuple.MixWord(altSeed, uint64(fp)) & f.mask)
}

// hasLane reports whether any 16-bit lane of w equals the lane replicated in
// pat (the exact zero-lane bit trick; empty lanes are zero and fingerprints
// are non-zero, so empties never match).
func hasLane(w, pat uint64) bool {
	x := w ^ pat
	return (x-lanePattern) & ^x & laneHigh != 0
}

// MayContainHash reports whether a key hashing to h may be present. A false
// answer is a guaranteed miss; a true answer may be a false positive
// (probability ≈ 8/2^16 per resident-free table, rising with load).
// Two bucket loads, no allocation.
func (f *Filter) MayContainHash(h uint64) bool {
	fp := fingerprintOf(h)
	pat := uint64(fp) * lanePattern
	i1 := h & f.mask
	if hasLane(f.buckets[i1], pat) {
		return true
	}
	return hasLane(f.buckets[f.alt(i1, fp)], pat)
}

// tryInsert places fp in the first empty lane of bucket i.
func (f *Filter) tryInsert(i uint64, fp uint16) bool {
	w := f.buckets[i]
	for lane := 0; lane < lanesPerBucket; lane++ {
		shift := uint(lane) * laneBits
		if w&(laneMask<<shift) == 0 {
			f.buckets[i] = w | uint64(fp)<<shift
			return true
		}
	}
	return false
}

// removeFrom clears one lane of bucket i holding fp.
func (f *Filter) removeFrom(i uint64, fp uint16) bool {
	w := f.buckets[i]
	for lane := 0; lane < lanesPerBucket; lane++ {
		shift := uint(lane) * laneBits
		if uint16(w>>shift) == fp {
			f.buckets[i] = w &^ (uint64(laneMask) << shift)
			return true
		}
	}
	return false
}

// Insert adds the fingerprint for key hash h. It reports false when the
// bounded eviction walk fails (the table is effectively full); the filter's
// contents are then INVALID — a displaced fingerprint has been dropped — and
// the owner must rebuild from its backing structure into a larger filter
// (New at double the capacity, re-inserting every resident hash).
func (f *Filter) Insert(h uint64) bool {
	fp := fingerprintOf(h)
	i1 := h & f.mask
	if f.tryInsert(i1, fp) {
		return true
	}
	i2 := f.alt(i1, fp)
	if f.tryInsert(i2, fp) {
		return true
	}
	// Both buckets full: displace a resident fingerprint along the cuckoo
	// walk. The victim lane rotates deterministically so the walk cannot
	// cycle between two lanes forever.
	i := i2
	cur := fp
	for k := 0; k < maxKicks; k++ {
		lane := uint(f.kick) % lanesPerBucket
		f.kick++
		shift := lane * laneBits
		victim := uint16(f.buckets[i] >> shift)
		f.buckets[i] = f.buckets[i]&^(uint64(laneMask)<<shift) | uint64(cur)<<shift
		cur = victim
		i = f.alt(i, cur)
		if f.tryInsert(i, cur) {
			return true
		}
	}
	return false
}

// Delete removes one fingerprint occurrence for key hash h, reporting
// whether one was found. Owners only delete hashes they inserted (and whose
// Insert succeeded), so false indicates an owner bug.
func (f *Filter) Delete(h uint64) bool {
	fp := fingerprintOf(h)
	i1 := h & f.mask
	if f.removeFrom(i1, fp) {
		return true
	}
	if f.removeFrom(f.alt(i1, fp), fp) {
		return true
	}
	return false
}
