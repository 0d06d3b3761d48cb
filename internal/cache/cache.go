// Package cache implements the join-subresult cache of Section 3.3: an
// associative store from cache-key values to the set of segment-join tuples
// for that key, with the paper's create/probe/insert/delete operations, a
// low-overhead direct-mapped replacement scheme, and explicit byte-level
// memory accounting for the adaptive memory allocator (Section 5).
package cache

import (
	"acache/internal/cost"
	"acache/internal/filter"
	"acache/internal/tuple"
)

// RefBytes is the accounted size of one cached tuple. The paper's
// implementation stores sets of references to relation tuples rather than
// copies; entries here own copies of the values (see slot) but are accounted
// the paper's way, each tuple at pointer size.
const RefBytes = 8

// BucketBytes is the accounted per-bucket overhead (hash pointer slot).
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

	// FilterShortCircuits counts residency checks (probes and maintenance
	// lookups) answered "guaranteed absent" by the fingerprint filter without
	// touching the slots; FilterFalsePositives counts filter-passed checks
	// that then missed anyway.
	FilterShortCircuits  int64
	FilterFalsePositives int64
}

// Cache is a direct-mapped associative store satisfying the consistency
// invariant (Definition 3.1): every resident entry's value is exactly the
// segment join selection for its key. Completeness is never guaranteed —
// entries may be missing — which is what lets caches be added empty and
// dropped at any time.
type Cache struct {
	nbuckets int
	mask     uint64 // nbuckets−1 when nbuckets is a power of two ≥ 2, else 0
	slots    []slot
	meter    *cost.Meter

	keyBytes   int // packed key size, constant per cache
	budget     int // memory budget in bytes; <0 = unlimited
	usedBytes  int
	numEntries int

	version uint64 // bumped on every entry mutation; validates probe memos

	// tr, when non-nil, is the engine's shared cold tier (see tier.go):
	// entry payloads past the hot watermark spill to a mapped file while
	// keys, filters, and all logical byte accounting stay resident.
	// coldBytes is the spilled portion of usedBytes.
	tr        *Tier
	coldBytes int

	// fil, when non-nil, fronts every residency check with a fingerprint
	// filter holding one fingerprint per resident entry, keyed by the same
	// cacheSeed hash as slot placement. A filter-negative check is a
	// guaranteed miss answered without touching the slot arrays; charges and
	// results are identical either way. Its bytes are reported by
	// FilterBytes, deliberately outside usedBytes, so eviction behavior and
	// cached cost figures are unchanged by the filter's presence.
	fil *filter.Filter

	stats Stats
}

// slot is one bucket. The entry owns its storage: key, val and flat are
// slot-owned buffers, and the cache copies every tuple it is given into
// them, so callers may pass scratch- or arena-backed tuples. A create over a
// resident entry refills the buffers in place; a drop releases them.
type slot struct {
	occupied bool

	// Tier state (see tier.go): a cold entry's payload lives in spill page
	// cslot and accounts for cbytes of the logical entry size; ref is the
	// demotion clock's reference bit.
	cold   bool
	ref    bool
	cslot  int32
	cbytes int

	key []byte
	// val holds the entry's tuples: val[i] aliases flat, in storage order and
	// with no spare capacity, and all tuples of an entry share one width.
	val  []tuple.Tuple
	flat []tuple.Value
	// ct is non-nil exactly for counted entries.
	ct *counts
}

// counts are a counted entry's slices parallel to val: mult is each distinct
// tuple's X-join multiplicity, cnt its total Y-support.
type counts struct{ mult, cnt []int }

// fill replaces the entry's tuples with copies of v. Only a first fill, or
// one larger than any before it in this slot, allocates.
func (s *slot) fill(v []tuple.Tuple) {
	n := 0
	for _, t := range v {
		n += len(t)
	}
	if cap(s.flat) < n {
		s.flat = make([]tuple.Value, 0, n)
	}
	if cap(s.val) < len(v) {
		s.val = make([]tuple.Tuple, 0, len(v))
	}
	s.val, s.flat = s.val[:0], s.flat[:0]
	for _, t := range v {
		s.push(t, nil)
	}
}

// push appends a copy of t — of t's columns cols, when cols is non-nil — to
// the entry, doubling the backing (and re-pointing val into it) when full.
func (s *slot) push(t tuple.Tuple, cols []int) {
	w := len(t)
	if cols != nil {
		w = len(cols)
	}
	if len(s.val) > 0 && w != len(s.val[0]) {
		panic("cache: tuples of one entry must share a width")
	}
	off := len(s.flat)
	if off+w > cap(s.flat) {
		grown := make([]tuple.Value, off, 2*(off+w))
		copy(grown, s.flat)
		for i := range s.val {
			s.val[i] = grown[i*w : (i+1)*w : (i+1)*w]
		}
		s.flat = grown
	}
	if cols == nil {
		s.flat = append(s.flat, t...)
	} else {
		for _, c := range cols {
			s.flat = append(s.flat, t[c])
		}
	}
	s.val = append(s.val, s.flat[off:off+w:off+w])
}

// remove deletes tuple i by moving the last tuple's values into its place.
func (s *slot) remove(i int) {
	last := len(s.val) - 1
	copy(s.val[i], s.val[last])
	s.flat = s.flat[:len(s.flat)-len(s.val[last])]
	s.val = s.val[:last]
}

// New creates a cache with nbuckets direct-mapped buckets for keys of
// keyBytes packed bytes. budget < 0 means unlimited memory.
func New(nbuckets, keyBytes, budget int, meter *cost.Meter) *Cache {
	if nbuckets < 1 {
		nbuckets = 1
	}
	c := &Cache{
		nbuckets: nbuckets,
		slots:    make([]slot, nbuckets),
		meter:    meter,
		keyBytes: keyBytes,
		budget:   budget,
		fil:      filter.New(initialFilterCapacity),
	}
	if nbuckets&(nbuckets-1) == 0 {
		c.mask = uint64(nbuckets - 1)
	}
	return c
}

// initialFilterCapacity sizes a fresh cache filter; filAdd rebuilds at
// doubled capacity on overflow, so footprint tracks resident entries rather
// than the (possibly much larger) bucket count.
const initialFilterCapacity = 64

// cacheSeed is a fixed hash seed: slot placement — and therefore eviction
// patterns and every cached-mode cost figure — is identical across runs for
// a fixed workload seed.
const cacheSeed uint64 = 0x2545f4914f6cdd1d

func hashOf(k []byte) uint64 { return tuple.HashBytes(k, cacheSeed) }

// keyEq compares a resident key against packed key bytes (the compiler
// elides the conversion allocations in a string==string comparison).
func keyEq(key, k []byte) bool { return string(key) == string(k) }

// slotAt returns the bucket of key hash h. The engine only ever sizes caches
// to powers of two, where the modulo is a mask; any other count (tests, the
// benchmark's probes) places slots by the same h mod nbuckets.
func (c *Cache) slotAt(h uint64) *slot {
	if c.mask != 0 {
		return &c.slots[h&c.mask]
	}
	return &c.slots[h%uint64(c.nbuckets)]
}

// filAdd records a newly resident key (by hash) in the filter. An overflowed
// cuckoo insert invalidates the filter, so it is rebuilt larger from the
// slots — which at this point already hold the new key.
func (c *Cache) filAdd(h uint64) {
	if c.fil == nil || c.fil.Insert(h) {
		return
	}
	c.rebuildFilter(c.fil.Capacity() * 2)
}

// filDel removes a no-longer-resident key's fingerprint.
func (c *Cache) filDel(h uint64) {
	if c.fil != nil {
		c.fil.Delete(h)
	}
}

// rebuildFilter builds a fresh filter of at least the given capacity holding
// one fingerprint per resident entry, doubling until everything fits.
func (c *Cache) rebuildFilter(capacity int) {
	if capacity < initialFilterCapacity {
		capacity = initialFilterCapacity
	}
	for {
		nf := filter.New(capacity)
		ok := true
		for i := range c.slots {
			if c.slots[i].occupied && !nf.Insert(hashOf(c.slots[i].key)) {
				ok = false
				break
			}
		}
		if ok {
			c.fil = nf
			return
		}
		capacity *= 2
	}
}

// filterAbsent reports a guaranteed miss for key hash h, counting the
// short-circuit. A false return means the caller must check the slots.
func (c *Cache) filterAbsent(h uint64) bool {
	if c.fil != nil && !c.fil.MayContainHash(h) {
		c.stats.FilterShortCircuits++
		return true
	}
	return false
}

// noteMiss records a probe that reached the slots and missed — a false
// positive when the filter vouched for the key first.
func (c *Cache) noteMiss() {
	c.stats.Misses++
	if c.fil != nil {
		c.stats.FilterFalsePositives++
	}
}

// residentSlot returns the slot currently holding packed key k, or nil — the
// lookup for Insert/Delete/Drop. The filter answers the absent case first;
// the unfiltered lookup returns the same nil, so callers behave identically
// either way.
func (c *Cache) residentSlot(k []byte) *slot {
	h := hashOf(k)
	if c.filterAbsent(h) {
		return nil
	}
	s := c.slotAt(h)
	if s.occupied && keyEq(s.key, k) {
		c.touchSlot(s)
		return s
	}
	return nil
}

func entryBytes(keyBytes int, val []tuple.Tuple) int {
	return keyBytes + RefBytes*len(val)
}

// Each operation below takes the key packed as bytes (a scratch buffer
// filled by tuple.AppendKey; hashing and comparison work directly on the
// bytes, and nothing is allocated beyond entry growth).

// ProbeBytes looks up key k. On a hit it returns (value, true); the value may
// be an empty set, which is still a hit — it asserts no segment tuples join
// with k. On a miss it returns (nil, false). The value is the entry's own
// storage, valid until the cache is next modified.
func (c *Cache) ProbeBytes(k []byte) ([]tuple.Tuple, bool) {
	c.meter.Charge(cost.HashProbe)
	c.stats.Probes++
	h := hashOf(k)
	if c.filterAbsent(h) {
		c.stats.Misses++
		return nil, false
	}
	s := c.slotAt(h)
	if s.occupied && keyEq(s.key, k) {
		c.stats.Hits++
		c.touchSlot(s)
		return s.val, true
	}
	c.noteMiss()
	return nil, false
}

// Create installs the complete value v for key u, replacing whatever entry
// occupied the slot (the direct-mapped scheme of Section 3.3: collisions
// simply evict the resident entry, which never violates consistency). If the
// new entry does not fit in the remaining budget the create is dropped; the
// resident entry, if any, is kept.
func (c *Cache) Create(u tuple.Key, v []tuple.Tuple) { c.CreateBytes([]byte(u), v) }

// CreateBytes is Create for a packed key supplied as bytes. The tuples of v
// are copied, at the cost of at most one backing allocation for all of them.
func (c *Cache) CreateBytes(k []byte, v []tuple.Tuple) {
	c.meter.Charge(cost.HashInsert)
	c.meter.ChargeN(cost.CacheInsertTuple, len(v))
	if s := c.claim(k, entryBytes(c.keyBytes, v)); s != nil {
		s.fill(v)
		s.ct = nil
		c.maybeMaintain()
	}
}

// claim makes the slot of key k hold a new entry of the given accounted size
// for it, evicting the resident entry, and returns the slot for the caller to
// fill; or it returns nil, the resident entry untouched, when the new entry
// does not fit the budget.
func (c *Cache) claim(k []byte, size int) *slot {
	h := hashOf(k)
	s := c.slotAt(h)
	freed := 0
	if s.occupied {
		freed = c.slotBytes(s)
	}
	if c.budget >= 0 && c.usedBytes-freed+size > c.budget {
		c.stats.MemoryDrops++
		return nil
	}
	c.version++
	if s.occupied {
		if !keyEq(s.key, k) {
			c.stats.Evictions++
		}
		c.filDel(hashOf(s.key))
		c.freeCold(s)
		c.usedBytes -= freed
		c.numEntries--
	}
	s.occupied = true
	s.key = append(s.key[:0], k...)
	s.ref = true
	c.usedBytes += size
	c.numEntries++
	c.stats.Creates++
	c.filAdd(h)
	return s
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
	s := c.residentSlot(k)
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	if c.budget >= 0 && c.usedBytes+RefBytes > c.budget {
		c.dropSlot(s)
		c.stats.MemoryDrops++
		return
	}
	c.version++
	s.push(t, cols)
	c.usedBytes += RefBytes
	c.stats.Inserts++
	c.maybeMaintain()
}

// DeleteBytes removes one tuple equal to r from the entry for key k, if the
// entry is present; otherwise it is ignored.
func (c *Cache) DeleteBytes(k []byte, r tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s := c.residentSlot(k)
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	for i, t := range s.val {
		if t.Equal(r) {
			c.version++
			s.remove(i)
			c.usedBytes -= RefBytes
			c.stats.Deletes++
			return
		}
	}
}

func (c *Cache) dropSlot(s *slot) {
	if !s.occupied {
		return
	}
	c.filDel(hashOf(s.key))
	c.version++
	c.usedBytes -= c.slotBytes(s)
	c.freeCold(s)
	c.numEntries--
	*s = slot{}
}

// Clear drops every entry, keeping the bucket array. Used when a cache's
// statistics have gone stale (e.g. after a pipeline reordering).
func (c *Cache) Clear() {
	for i := range c.slots {
		c.dropSlot(&c.slots[i])
	}
}

// SetBudget changes the memory budget. Shrinking below current usage evicts
// entries (in slot order) until usage fits; this is how the adaptive memory
// allocator reclaims pages from low-priority caches.
func (c *Cache) SetBudget(budget int) {
	c.budget = budget
	if budget < 0 {
		return
	}
	for i := range c.slots {
		if c.usedBytes <= budget {
			return
		}
		c.dropSlot(&c.slots[i])
	}
}

// UsedBytes returns the currently accounted memory, excluding the fixed
// bucket array (see FixedBytes).
func (c *Cache) UsedBytes() int { return c.usedBytes }

// FixedBytes returns the bucket array overhead, charged once at allocation.
func (c *Cache) FixedBytes() int { return c.nbuckets * BucketBytes }

// Entries returns the number of resident entries.
func (c *Cache) Entries() int { return c.numEntries }

// SetFilterEnabled toggles the residency filter. Enabling rebuilds it from
// the resident entries; disabling frees it. Consistency never depends on the
// filter, so the re-optimizer toggles this as a cheap plan knob at any point.
func (c *Cache) SetFilterEnabled(on bool) {
	if on == (c.fil != nil) {
		return
	}
	if !on {
		c.fil = nil
		return
	}
	c.rebuildFilter(c.numEntries)
}

// FilterBytes returns the filter's resident footprint. It is charged against
// the server memory budget but kept out of UsedBytes so eviction behavior is
// independent of the filter.
func (c *Cache) FilterBytes() int {
	if c.fil == nil {
		return 0
	}
	return c.fil.MemoryBytes()
}

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

// Each visits every resident entry. Nothing in the program calls it: it is
// what the tests of the consistency invariant (Definition 3.1) walk the
// cache with, here and in internal/join and internal/core. Cold entries are
// promoted so the callback sees materialized values.
func (c *Cache) Each(f func(u tuple.Key, v []tuple.Tuple)) {
	for i := range c.slots {
		s := &c.slots[i]
		if !s.occupied {
			continue
		}
		if s.cold {
			c.promoteSlot(s)
		}
		f(tuple.Key(s.key), s.val)
	}
}
