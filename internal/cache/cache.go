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

// RefBytes is the accounted size of one cached tuple reference. The paper's
// implementation stores sets of references to relation tuples rather than
// copies; we account each value element at pointer size.
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

type slot struct {
	occupied bool
	key      tuple.Key
	val      []tuple.Tuple
	// Counted-mode parallel slices (nil for plain entries): mult is each
	// distinct tuple's X-join multiplicity, cnt its total Y-support.
	mult []int
	cnt  []int

	// Tier state (see tier.go): a cold entry's payload lives in spill page
	// cslot and accounts for cbytes of the logical entry size; ref is the
	// demotion clock's reference bit.
	cold   bool
	ref    bool
	cslot  int32
	cbytes int
}

// New creates a cache with nbuckets direct-mapped buckets for keys of
// keyBytes packed bytes. budget < 0 means unlimited memory.
func New(nbuckets, keyBytes, budget int, meter *cost.Meter) *Cache {
	if nbuckets < 1 {
		nbuckets = 1
	}
	return &Cache{
		nbuckets: nbuckets,
		slots:    make([]slot, nbuckets),
		meter:    meter,
		keyBytes: keyBytes,
		budget:   budget,
		fil:      filter.New(initialFilterCapacity),
	}
}

// initialFilterCapacity sizes a fresh cache filter; filAdd rebuilds at
// doubled capacity on overflow, so footprint tracks resident entries rather
// than the (possibly much larger) bucket count.
const initialFilterCapacity = 64

// cacheSeed is a fixed hash seed: slot placement — and therefore eviction
// patterns and every cached-mode cost figure — is identical across runs for
// a fixed workload seed.
const cacheSeed uint64 = 0x2545f4914f6cdd1d

func hashOf(u tuple.Key) uint64 { return tuple.HashKey(u, cacheSeed) }

// keyEq compares a resident key against packed key bytes without
// materializing a string (the compiler elides the conversion allocations in
// a string==string comparison).
func keyEq(key tuple.Key, k []byte) bool { return string(key) == string(k) }

func (c *Cache) slotOf(u tuple.Key) *slot {
	return &c.slots[hashOf(u)%uint64(c.nbuckets)]
}

func (c *Cache) slotOfBytes(k []byte) *slot {
	return &c.slots[tuple.HashBytes(k, cacheSeed)%uint64(c.nbuckets)]
}

// filAdd records a newly resident key in the filter. An overflowed cuckoo
// insert invalidates the filter, so it is rebuilt larger from the slots —
// which at this point already hold the new key.
func (c *Cache) filAdd(u tuple.Key) {
	if c.fil == nil || c.fil.Insert(hashOf(u)) {
		return
	}
	c.rebuildFilter(c.fil.Capacity() * 2)
}

// filDel removes a no-longer-resident key's fingerprint.
func (c *Cache) filDel(u tuple.Key) {
	if c.fil != nil {
		c.fil.Delete(hashOf(u))
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

// residentSlot returns the slot currently holding key u, or nil — the lookup
// for Insert/Delete/Drop. The filter answers the absent case first; the
// unfiltered lookup returns the same nil, so callers behave identically
// either way.
func (c *Cache) residentSlot(u tuple.Key) *slot {
	if c.filterAbsent(hashOf(u)) {
		return nil
	}
	s := c.slotOf(u)
	if s.occupied && s.key == u {
		c.touchSlot(s)
		return s
	}
	return nil
}

// residentSlotBytes is residentSlot for packed key bytes.
func (c *Cache) residentSlotBytes(k []byte) *slot {
	if c.filterAbsent(tuple.HashBytes(k, cacheSeed)) {
		return nil
	}
	s := c.slotOfBytes(k)
	if s.occupied && keyEq(s.key, k) {
		c.touchSlot(s)
		return s
	}
	return nil
}

func entryBytes(keyBytes int, val []tuple.Tuple) int {
	return keyBytes + RefBytes*len(val)
}

// Probe looks up key u. On a hit it returns (value, true); the value may be
// an empty set, which is still a hit — it asserts no segment tuples join
// with u. On a miss it returns (nil, false).
func (c *Cache) Probe(u tuple.Key) ([]tuple.Tuple, bool) {
	c.meter.Charge(cost.HashProbe)
	c.stats.Probes++
	h := hashOf(u)
	if c.filterAbsent(h) {
		c.stats.Misses++
		return nil, false
	}
	s := &c.slots[h%uint64(c.nbuckets)]
	if s.occupied && s.key == u {
		c.stats.Hits++
		c.touchSlot(s)
		return s.val, true
	}
	c.noteMiss()
	return nil, false
}

// ProbeBytes is Probe for a packed key supplied as bytes (a scratch buffer
// filled by tuple.AppendKey). It allocates nothing: hashing and comparison
// work directly on the bytes. Charges and statistics match Probe exactly.
func (c *Cache) ProbeBytes(k []byte) ([]tuple.Tuple, bool) {
	c.meter.Charge(cost.HashProbe)
	c.stats.Probes++
	h := tuple.HashBytes(k, cacheSeed)
	if c.filterAbsent(h) {
		c.stats.Misses++
		return nil, false
	}
	s := &c.slots[h%uint64(c.nbuckets)]
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
func (c *Cache) Create(u tuple.Key, v []tuple.Tuple) {
	c.meter.Charge(cost.HashInsert)
	c.meter.ChargeN(cost.CacheInsertTuple, len(v))
	size := entryBytes(c.keyBytes, v)
	s := c.slotOf(u)
	freed := 0
	if s.occupied {
		freed = c.slotBytes(s)
	}
	if c.budget >= 0 && c.usedBytes-freed+size > c.budget {
		c.stats.MemoryDrops++
		return
	}
	c.version++
	if s.occupied {
		if s.key != u {
			c.stats.Evictions++
		}
		c.filDel(s.key)
		c.freeCold(s)
		c.usedBytes -= freed
		c.numEntries--
	}
	s.occupied = true
	s.key = u
	s.val = append([]tuple.Tuple(nil), v...)
	s.cnt = nil
	s.mult = nil
	s.ref = true
	c.usedBytes += size
	c.numEntries++
	c.stats.Creates++
	c.filAdd(u)
	c.maybeMaintain()
}

// Insert adds tuple r to the entry for key u, if present; otherwise it is
// ignored (Section 3.2). If growing the entry would exceed the budget, the
// entire entry is dropped instead — absence never violates consistency,
// while a silently incomplete entry would.
func (c *Cache) Insert(u tuple.Key, r tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s := c.residentSlot(u)
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
	s.val = append(s.val, r)
	c.usedBytes += RefBytes
	c.stats.Inserts++
	c.maybeMaintain()
}

// InsertBytes is Insert for a packed key supplied as bytes. The tuple r is
// retained by the cache, so callers passing arena-backed composites must
// clone first (maintenance extracts already copy).
func (c *Cache) InsertBytes(k []byte, r tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s := c.residentSlotBytes(k)
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
	s.val = append(s.val, r)
	c.usedBytes += RefBytes
	c.stats.Inserts++
	c.maybeMaintain()
}

// Delete removes one tuple equal to r from the entry for key u, if the entry
// is present; otherwise it is ignored.
func (c *Cache) Delete(u tuple.Key, r tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s := c.residentSlot(u)
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	for i, t := range s.val {
		if t.Equal(r) {
			c.version++
			s.val[i] = s.val[len(s.val)-1]
			s.val = s.val[:len(s.val)-1]
			c.usedBytes -= RefBytes
			c.stats.Deletes++
			return
		}
	}
}

// InsertBytesLazy is InsertBytes taking the tuple as a constructor, invoked
// only when the entry is resident and fits the budget — maintenance avoids
// materializing a heap copy of the segment tuple on the absent path. Charges
// and statistics match Insert exactly.
func (c *Cache) InsertBytesLazy(k []byte, mk func() tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s := c.residentSlotBytes(k)
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
	s.val = append(s.val, mk())
	c.usedBytes += RefBytes
	c.stats.Inserts++
	c.maybeMaintain()
}

// DeleteBytes is Delete for a packed key supplied as bytes.
func (c *Cache) DeleteBytes(k []byte, r tuple.Tuple) {
	c.meter.Charge(cost.HashProbe)
	s := c.residentSlotBytes(k)
	if s == nil {
		return
	}
	c.meter.Charge(cost.CacheInsertTuple)
	for i, t := range s.val {
		if t.Equal(r) {
			c.version++
			s.val[i] = s.val[len(s.val)-1]
			s.val = s.val[:len(s.val)-1]
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
	c.filDel(s.key)
	c.version++
	c.usedBytes -= c.slotBytes(s)
	c.freeCold(s)
	c.numEntries--
	s.occupied = false
	s.key = ""
	s.val = nil
	s.cnt = nil
	s.mult = nil
	s.ref = false
}

// Drop removes the entry for key u, if resident. Invalidation-mode caches
// use it when a segment update touches a cached key: absence never violates
// consistency, so dropping is always safe.
func (c *Cache) Drop(u tuple.Key) {
	c.meter.Charge(cost.HashProbe)
	if s := c.residentSlot(u); s != nil {
		c.dropSlot(s)
	}
}

// DropBytes is Drop for a packed key supplied as bytes.
func (c *Cache) DropBytes(k []byte) {
	c.meter.Charge(cost.HashProbe)
	if s := c.residentSlotBytes(k); s != nil {
		c.dropSlot(s)
	}
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

// Budget returns the current byte budget (<0 = unlimited).
func (c *Cache) Budget() int { return c.budget }

// UsedBytes returns the currently accounted memory, excluding the fixed
// bucket array (see FixedBytes).
func (c *Cache) UsedBytes() int { return c.usedBytes }

// FixedBytes returns the bucket array overhead, charged once at allocation.
func (c *Cache) FixedBytes() int { return c.nbuckets * BucketBytes }

// Entries returns the number of resident entries.
func (c *Cache) Entries() int { return c.numEntries }

// Buckets returns the configured bucket count.
func (c *Cache) Buckets() int { return c.nbuckets }

// KeyBytes returns the packed key size.
func (c *Cache) KeyBytes() int { return c.keyBytes }

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

// FilterEnabled reports whether the residency filter is on.
func (c *Cache) FilterEnabled() bool { return c.fil != nil }

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

// Each visits every resident entry; for tests and invariant checks. Cold
// entries are promoted so the callback sees materialized values.
func (c *Cache) Each(f func(u tuple.Key, v []tuple.Tuple)) {
	for i := range c.slots {
		s := &c.slots[i]
		if !s.occupied {
			continue
		}
		if s.cold {
			c.promoteSlot(s)
		}
		f(s.key, s.val)
	}
}
