// Package cache implements the join-subresult cache of Section 3.3: an
// associative store from cache-key values to the set of segment-join tuples
// for that key, with the paper's create/probe/insert/delete operations, a
// low-overhead direct-mapped replacement scheme, and explicit byte-level
// memory accounting for the adaptive memory allocator (Section 5).
//
// The layout is the paper's: a direct-mapped array of 4-byte hash pointer
// slots over a dense slab of entries that grows with residency, keys inline
// in one byte slab, each entry's tuples in one value buffer walked by the
// cache's tuple width. The accounting is the paper's too (BucketBytes per
// bucket, RefBytes per tuple — figure 11 is byte-equal across layouts), so
// accounted and held bytes still differ; making budgets true bytes is the
// open part of ROADMAP item 3.
package cache

import (
	"acache/internal/cost"
	"acache/internal/tuple"
)

// RefBytes is the accounted size of one cached tuple. The paper's
// implementation stores sets of references to relation tuples rather than
// copies; entries here own copies of the values (see slot) but are accounted
// the paper's way, each tuple at pointer size: a resident entry holds about
// 1.5 heap bytes per accounted byte (TestCacheEntryFootprint).
const RefBytes = 8

// BucketBytes is the accounted per-bucket overhead (hash pointer slot). The
// bucket array holds 4 bytes per bucket; the rest of the accounted 8 stands
// for the bucket's share of the entry slab.
const BucketBytes = 8

// Stats are cumulative counters, exposed for the profiler and for tests.
type Stats struct {
	Probes      int64
	Hits        int64
	Misses      int64
	Creates     int64
	Inserts     int64
	Deletes     int64
	Evictions   int64 // direct-mapped collisions that replaced a resident entry
	MemoryDrops int64 // creates or inserts abandoned for lack of memory
}

// Cache is a direct-mapped associative store satisfying the consistency
// invariant (Definition 3.1): every resident entry's value is exactly the
// segment join selection for its key. Completeness is never guaranteed —
// entries may be missing — which is what lets caches be added empty and
// dropped at any time.
type Cache struct {
	nbuckets int
	mask     uint64 // nbuckets−1 when nbuckets is a power of two ≥ 2, else 0
	meter    *cost.Meter

	// buckets[b] is the slab index of bucket b's entry plus one, 0 when the
	// bucket is empty — which makes the array its own guaranteed-miss filter:
	// at the engine's 1/8 load, 7 of 8 absent keys end at that one load.
	// Entry e lives in ents[e] with its key at keys[e*keyBytes:]; released
	// indices wait on free. claim is the only grower of ents and keys, so no
	// *slot may be held across it. Every whole-cache walk goes by bucket, not
	// by slab index: victim order is placement order, whatever the slab's
	// allocation history.
	buckets []int32
	ents    []slot
	keys    []byte
	free    []int32

	// width is the length of every cached tuple, set by the first one (−1
	// before it). hdr is the scratch the probes rebuild tuple headers into.
	width int
	hdr   []tuple.Tuple

	keyBytes   int // packed key size, constant per cache
	budget     int // memory budget in bytes; <0 = unlimited
	usedBytes  int
	numEntries int

	stats Stats
}

// slot is one resident entry. The entry owns its storage: the cache copies
// every tuple it is given into flat, so callers may pass scratch- or
// arena-backed tuples. A create over a resident entry refills the buffer in
// place; a drop releases it (reclaiming budget must free memory) and
// recycles only the struct.
type slot struct {
	// flat holds the entry's n tuples back to back, in storage order, each
	// of the cache's width.
	n    int32
	flat []tuple.Value
	// ct is non-nil exactly for counted entries.
	ct *counts
}

// counts are a counted entry's slices parallel to its tuples: mult is each
// distinct tuple's X-join multiplicity, cnt its total Y-support.
type counts struct{ mult, cnt []int }

// at returns tuple i of the entry, aliasing flat.
func (s *slot) at(i, w int) tuple.Tuple { return s.flat[i*w : (i+1)*w : (i+1)*w] }

// fill replaces the entry's tuples with copies of v. Only a first fill, or
// one larger than any before it in this entry, allocates.
func (c *Cache) fill(s *slot, v []tuple.Tuple) {
	s.n, s.flat = 0, s.flat[:0]
	if len(v) > 0 && cap(s.flat) < len(v)*len(v[0]) {
		s.flat = make([]tuple.Value, 0, len(v)*len(v[0]))
	}
	for _, t := range v {
		c.push(s, t, nil)
	}
}

// push appends a copy of t — of t's columns cols, when cols is non-nil — to
// the entry, doubling the backing when full.
func (c *Cache) push(s *slot, t tuple.Tuple, cols []int) {
	w := len(t)
	if cols != nil {
		w = len(cols)
	}
	if w != c.width {
		if c.width >= 0 {
			panic("cache: tuples of one cache must share a width")
		}
		c.width = w
	}
	if off := len(s.flat); off+w > cap(s.flat) {
		grown := make([]tuple.Value, off, 2*(off+w))
		copy(grown, s.flat)
		s.flat = grown
	}
	if cols == nil {
		s.flat = append(s.flat, t...)
	} else {
		for _, col := range cols {
			s.flat = append(s.flat, t[col])
		}
	}
	s.n++
}

// find returns the index of the first tuple of the entry equal to r, or −1.
func (c *Cache) find(s *slot, r tuple.Tuple) int {
	if len(r) != c.width {
		return -1
	}
	for i := 0; i < int(s.n); i++ {
		if s.at(i, c.width).Equal(r) {
			return i
		}
	}
	return -1
}

// remove deletes tuple i by moving the last tuple's values into its place.
func (c *Cache) remove(s *slot, i int) {
	last := int(s.n) - 1
	copy(s.at(i, c.width), s.at(last, c.width))
	s.flat = s.flat[:last*c.width]
	s.n--
}

// headers rebuilds the entry's tuple headers into the cache's scratch slice:
// what the probes return, valid until the next call on this cache.
func (c *Cache) headers(s *slot) []tuple.Tuple {
	n, w := int(s.n), c.width
	if cap(c.hdr) < n {
		c.hdr = make([]tuple.Tuple, 2*n)
	}
	h, flat := c.hdr[:n], s.flat
	for i := range h {
		h[i], flat = flat[:w:w], flat[w:]
	}
	return h
}

// New creates a cache with nbuckets direct-mapped buckets for keys of
// keyBytes packed bytes. budget < 0 means unlimited memory. The entry slab
// starts at nbuckets/8 — the population the engine sizes the buckets for —
// and doubles up to nbuckets as entries arrive.
func New(nbuckets, keyBytes, budget int, meter *cost.Meter) *Cache {
	if nbuckets < 1 {
		nbuckets = 1
	}
	n := max(nbuckets/8, 1)
	c := &Cache{
		nbuckets: nbuckets,
		buckets:  make([]int32, nbuckets),
		ents:     make([]slot, 0, n),
		keys:     make([]byte, 0, n*keyBytes),
		meter:    meter,
		width:    -1,
		keyBytes: keyBytes,
		budget:   budget,
	}
	if nbuckets&(nbuckets-1) == 0 {
		c.mask = uint64(nbuckets - 1)
	}
	return c
}

// cacheSeed is a fixed hash seed: slot placement — and therefore eviction
// patterns and every cached-mode cost figure — is identical across runs for
// a fixed workload seed.
const cacheSeed uint64 = 0x2545f4914f6cdd1d

func hashOf(k []byte) uint64 { return tuple.HashBytes(k, cacheSeed) }

// bucketAt returns the bucket of key hash h. The engine only ever sizes
// caches to powers of two, where the modulo is a mask; any other count
// (tests, the benchmark's probes) places entries by the same h mod nbuckets.
func (c *Cache) bucketAt(h uint64) int {
	if c.mask != 0 {
		return int(h & c.mask)
	}
	return int(h % uint64(c.nbuckets))
}

// keyOf returns the resident key of entry e.
func (c *Cache) keyOf(e int32) []byte {
	return c.keys[int(e)*c.keyBytes : (int(e)+1)*c.keyBytes]
}

// lookup returns the entry currently holding packed key k and its bucket, or
// nil (the compiler elides the conversion allocations in the string==string
// key comparison).
func (c *Cache) lookup(k []byte) (*slot, int) {
	b := c.bucketAt(hashOf(k))
	e := c.buckets[b] - 1
	if e < 0 || string(c.keyOf(e)) != string(k) {
		return nil, b
	}
	return &c.ents[e], b
}

func entryBytes(keyBytes, n int) int { return keyBytes + RefBytes*n }

// Each operation below takes the key packed as bytes (a scratch buffer
// filled by tuple.AppendKey; hashing and comparison work directly on the
// bytes, and nothing is allocated beyond entry growth).

// ProbeBytes looks up key k. On a hit it returns (value, true); the value may
// be an empty set, which is still a hit — it asserts no segment tuples join
// with k. On a miss it returns (nil, false). The value's tuples alias the
// entry's storage and its headers are the cache's scratch: both are valid
// only until the next call on this cache, so a caller that keeps them copies.
func (c *Cache) ProbeBytes(k []byte) ([]tuple.Tuple, bool) {
	c.meter.Charge(cost.HashProbe)
	c.stats.Probes++
	s, _ := c.lookup(k)
	if s == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	return c.headers(s), true
}

// Create installs the complete value v for key u, replacing whatever entry
// occupied the bucket (the direct-mapped scheme of Section 3.3: collisions
// simply evict the resident entry, which never violates consistency). If the
// new entry does not fit in the remaining budget the create is dropped; the
// resident entry, if any, is kept.
func (c *Cache) Create(u tuple.Key, v []tuple.Tuple) { c.CreateBytes([]byte(u), v) }

// CreateBytes is Create for a packed key supplied as bytes. The tuples of v
// are copied, at the cost of at most one backing allocation for all of them.
func (c *Cache) CreateBytes(k []byte, v []tuple.Tuple) {
	c.meter.Charge(cost.HashInsert)
	c.meter.ChargeN(cost.CacheInsertTuple, len(v))
	if s := c.claim(k, entryBytes(c.keyBytes, len(v))); s != nil {
		c.fill(s, v)
		s.ct = nil
	}
}

// claim makes the bucket of key k hold a new entry of the given accounted
// size for it, evicting the resident entry, and returns the entry for the
// caller to fill; or it returns nil, the resident entry untouched, when the
// new entry does not fit the budget.
func (c *Cache) claim(k []byte, size int) *slot {
	if len(k) != c.keyBytes {
		panic("cache: key is not keyBytes long")
	}
	b := c.bucketAt(hashOf(k))
	e := c.buckets[b] - 1
	freed := 0
	if e >= 0 {
		freed = c.slotBytes(&c.ents[e])
	}
	if c.budget >= 0 && c.usedBytes-freed+size > c.budget {
		c.stats.MemoryDrops++
		return nil
	}
	if e >= 0 {
		if string(c.keyOf(e)) != string(k) {
			c.stats.Evictions++
		}
		c.usedBytes -= freed
		c.numEntries--
	} else {
		e = c.alloc()
		c.buckets[b] = e + 1
	}
	copy(c.keyOf(e), k)
	c.usedBytes += size
	c.numEntries++
	c.stats.Creates++
	return &c.ents[e]
}

// alloc returns the index of an unused slab entry: a released one, else the
// next of the slab, which doubles (up to one entry per bucket) when full.
func (c *Cache) alloc() int32 {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	if len(c.ents) == cap(c.ents) {
		n := min(2*cap(c.ents), c.nbuckets)
		c.ents = append(make([]slot, 0, n), c.ents...)
		c.keys = append(make([]byte, 0, n*c.keyBytes), c.keys...)
	}
	c.ents = append(c.ents, slot{})
	c.keys = c.keys[:len(c.ents)*c.keyBytes]
	return int32(len(c.ents) - 1)
}

// InsertBytes adds tuple r to the entry for key k, if present; otherwise it
// is ignored (Section 3.2). If growing the entry would exceed the budget, the
// entire entry is dropped instead — absence never violates consistency,
// while a silently incomplete entry would.
func (c *Cache) InsertBytes(k []byte, r tuple.Tuple) { c.InsertColsBytes(k, r, nil) }

// InsertColsBytes is InsertBytes of t's projection on cols (nil: of t), which
// is read only when the entry is resident and fits the budget — maintenance
// never materializes the segment tuple on the absent path.
func (c *Cache) InsertColsBytes(k []byte, t tuple.Tuple, cols []int) {
	c.meter.Charge(cost.HashProbe)
	s, b := c.lookup(k)
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	if c.budget >= 0 && c.usedBytes+RefBytes > c.budget {
		c.dropBucket(b)
		c.stats.MemoryDrops++
		return
	}
	c.push(s, t, cols)
	c.usedBytes += RefBytes
	c.stats.Inserts++
}

// DeleteBytes removes one tuple equal to r from the entry for key k, if the
// entry is present; otherwise it is ignored.
func (c *Cache) DeleteBytes(k []byte, r tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s, _ := c.lookup(k)
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	if i := c.find(s, r); i >= 0 {
		c.remove(s, i)
		c.usedBytes -= RefBytes
		c.stats.Deletes++
	}
}

// dropBucket drops bucket b's entry, if it has one: the value buffer is
// released, the entry struct goes on the free list.
func (c *Cache) dropBucket(b int) {
	e := c.buckets[b] - 1
	if e < 0 {
		return
	}
	s := &c.ents[e]
	c.usedBytes -= c.slotBytes(s)
	c.numEntries--
	*s = slot{}
	c.buckets[b] = 0
	c.free = append(c.free, e)
}

// Clear drops every entry, keeping the bucket array. Used when the last
// lookup of a cache detaches and its maintenance stops.
func (c *Cache) Clear() {
	for b := range c.buckets {
		c.dropBucket(b)
	}
}

// SetBudget changes the memory budget. Shrinking below current usage evicts
// entries (in bucket order) until usage fits; this is how the adaptive
// memory allocator reclaims pages from low-priority caches.
func (c *Cache) SetBudget(budget int) {
	c.budget = budget
	if budget < 0 {
		return
	}
	for b := range c.buckets {
		if c.usedBytes <= budget {
			return
		}
		c.dropBucket(b)
	}
}

// UsedBytes returns the currently accounted memory, excluding the fixed
// bucket array (see FixedBytes).
func (c *Cache) UsedBytes() int { return c.usedBytes }

// FixedBytes returns the bucket array overhead, charged once at allocation.
func (c *Cache) FixedBytes() int { return c.nbuckets * BucketBytes }

// Entries returns the number of resident entries.
func (c *Cache) Entries() int { return c.numEntries }

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (entries are kept).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// HitRate returns hits/probes since the last ResetStats, or 0 with no probes.
// 1 − HitRate is the directly observed miss_prob of a used cache
// (Section 4.3).
func (c *Cache) HitRate() float64 {
	if c.stats.Probes == 0 {
		return 0
	}
	return float64(c.stats.Hits) / float64(c.stats.Probes)
}

// Each visits every resident entry, in bucket order. Nothing in the program
// calls it: it is what the tests of the consistency invariant (Definition
// 3.1) walk the cache with, here and in internal/join and internal/core. v is
// the probes' scratch, valid until the callback returns or probes.
func (c *Cache) Each(f func(u tuple.Key, v []tuple.Tuple)) {
	for _, e := range c.buckets {
		if e != 0 {
			f(tuple.Key(c.keyOf(e-1)), c.headers(&c.ents[e-1]))
		}
	}
}
