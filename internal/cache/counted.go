package cache

import (
	"acache/internal/cost"
	"acache/internal/tuple"
)

// Counted-value operations for globally-consistent caches (Section 6).
//
// A globally-consistent cache stores X ⋉ Y: the segment-join (X) tuples that
// currently have at least one joining combination in the reduction join Y.
// Each resident entry holds one element per *distinct* X-tuple value x with
// two numbers:
//
//   - mult: x's multiplicity in the X join (identical window rows multiply),
//     which a probe hit must replay; and
//   - support: the total Y-support T(x) = mult × (Y combinations per
//     instance).
//
// T is maintained additively and exactly: every maintenance delta batch at
// the X∪Y pipeline position contributes one composite per
// (X-instance, Y-combination) pair, and a single update changes only one
// factor of T, so T ± n is always exact. mult is recomputed from base-store
// value counts when an X relation changes (the join package supplies the
// recompute closure). An element lives exactly while T > 0, which is
// precisely x ∈ X ⋉ Y — so entries always equal the lower bound of the
// global-consistency invariant (Definition 6.1), the strongest point of its
// allowed range.
//
// Counted entries reuse the same slab as plain entries; a cache must be
// used in exactly one mode — the engine never mixes them.

// countedElemBytes is the accounted per-element overhead beyond the tuple
// reference: the mult and support integers.
const countedElemBytes = RefBytes * 3

// CreateCounted installs the complete counted value for key u: tuples[i] is
// a distinct X-tuple with multiplicity mults[i] ≥ 1 and total support
// supports[i] > 0. Semantics otherwise match Create, including direct-mapped
// eviction and budget drops.
func (c *Cache) CreateCounted(u tuple.Key, tuples []tuple.Tuple, mults, supports []int) {
	if len(tuples) != len(mults) || len(tuples) != len(supports) {
		panic("cache: tuples/mults/supports length mismatch")
	}
	c.meter.Charge(cost.HashInsert)
	c.meter.ChargeN(cost.CacheInsertTuple, len(tuples))
	if s := c.claim([]byte(u), c.keyBytes+countedElemBytes*len(tuples)); s != nil {
		c.fill(s, tuples)
		s.ct = &counts{mult: append([]int(nil), mults...), cnt: append([]int(nil), supports...)}
	}
}

// ProbeCountedBytes looks up key k on a counted cache, returning the distinct
// tuples and their multiplicities on a hit, valid like ProbeBytes' value
// until the next call on this cache.
func (c *Cache) ProbeCountedBytes(k []byte) (tuples []tuple.Tuple, mults []int, ok bool) {
	c.meter.Charge(cost.HashProbe)
	c.stats.Probes++
	s, _ := c.lookup(k)
	if s == nil {
		c.stats.Misses++
		return nil, nil, false
	}
	c.stats.Hits++
	return c.headers(s), s.ct.mult, true
}

// ApplyCountedDelta applies a maintenance delta of n support units (n > 0
// inserts, n < 0 deletes) for X-tuple r under key u. recomputeMult returns
// r's X-join multiplicity as it will stand once the triggering update is
// applied; the join layer derives it from base-store value counts. Absent
// entries are ignored; an element is added when support arrives for a tuple
// the entry did not hold (the lower bound of Definition 6.1 requires it),
// and removed when its support reaches zero.
func (c *Cache) ApplyCountedDelta(u tuple.Key, r tuple.Tuple, n int, recomputeMult func() int) {
	c.meter.Charge(cost.HashProbe)
	s, b := c.lookup([]byte(u))
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	if n > 0 {
		c.stats.Inserts++
	} else {
		c.stats.Deletes++
	}
	if i := c.find(s, r); i >= 0 {
		ct := s.ct
		ct.cnt[i] += n
		if ct.cnt[i] <= 0 {
			last := int(s.n) - 1
			c.remove(s, i)
			ct.cnt[i], ct.mult[i] = ct.cnt[last], ct.mult[last]
			ct.cnt, ct.mult = ct.cnt[:last], ct.mult[:last]
			c.usedBytes -= countedElemBytes
			return
		}
		ct.mult[i] = recomputeMult()
		return
	}
	if n <= 0 {
		return
	}
	if c.budget >= 0 && c.usedBytes+countedElemBytes > c.budget {
		c.dropBucket(b)
		c.stats.MemoryDrops++
		return
	}
	m := recomputeMult()
	c.push(s, r, nil)
	s.ct.cnt = append(s.ct.cnt, n)
	s.ct.mult = append(s.ct.mult, m)
	c.usedBytes += countedElemBytes
}

// EachCounted visits every resident counted entry with its multiplicities
// and supports — Each for the global-consistency invariant (Definition 6.1).
func (c *Cache) EachCounted(f func(u tuple.Key, v []tuple.Tuple, mults, supports []int)) {
	for _, e := range c.buckets {
		if e == 0 {
			continue
		}
		s := &c.ents[e-1]
		f(tuple.Key(c.keyOf(e-1)), c.headers(s), s.ct.mult, s.ct.cnt)
	}
}

// slotBytes returns the accounted size of an entry, counted or plain.
func (c *Cache) slotBytes(s *slot) int {
	if s.ct != nil {
		return c.keyBytes + countedElemBytes*int(s.n)
	}
	return entryBytes(c.keyBytes, int(s.n))
}
