package cache

import (
	"encoding/binary"

	"acache/internal/fault"
	"acache/internal/tier"
	"acache/internal/tuple"
)

// Tiered cache storage: cache tables share one engine-level spill file. A
// demoted entry keeps its bucket, key, and logical byte accounting resident
// — so placement, eviction, budget drops, and every meter charge are
// bit-identical with tiering on or off — while its payload (the value set,
// and for counted entries the mult/support arrays) is serialized into one
// spill page. Any touch of a cold entry promotes it first; a miss is decided
// by the resident bucket and key, so it never faults a cold page. A clock
// hand across the attached caches' buckets demotes cold-eligible entries
// while the resident payload footprint exceeds the watermark.
//
// Unlike relation pages, entries mutate while hot, so a demoted blob does
// not keep its spill slot: the slot is freed at promotion and a fresh one is
// allocated at the next demotion. A cold entry is immutable by construction
// — every mutation path resolves the entry through lookup, which promotes
// first.

// cacheSpillMeta marks a spill file as holding cache entry blobs (the
// relation spills record their tuple width here instead).
const cacheSpillMeta = 0xcace

// Tier is the shared cold tier of one engine's cache tables.
type Tier struct {
	sp        *tier.Spill
	hotBytes  int
	caches    []*Cache
	ci, si    int // clock hand: cache index, bucket index
	promos    uint64
	demos     uint64
	writeErrs uint64 // failed spill writes (each one sets disabled)
	disabled  bool   // spill I/O failed: stop demoting, degrade fully hot
}

// NewTier creates the shared cache spill at path. hotBytes is the watermark
// on the total resident payload of all attached caches. Spill I/O goes
// through fsys (nil = the real filesystem).
func NewTier(path string, pageBytes, hotBytes int, fsys fault.FS) (*Tier, error) {
	sp, err := tier.Create(path, pageBytes, cacheSpillMeta, fsys)
	if err != nil {
		return nil, err
	}
	return &Tier{sp: sp, hotBytes: hotBytes}, nil
}

// Close detaches every cache (promoting nothing — callers close caches
// first or accept the loss) and removes the spill file. Attached caches are
// left untired with their cold payloads dropped, so Close is only for
// engine teardown where the caches die too.
func (t *Tier) Close() error {
	for _, c := range t.caches {
		for b, e := range c.buckets {
			if e != 0 && c.ents[e-1].cold {
				c.dropBucket(b)
			}
		}
		c.tr = nil
	}
	t.caches = nil
	return t.sp.Close()
}

// Counters returns cumulative entry promotions and demotions.
func (t *Tier) Counters() (promotions, demotions uint64) { return t.promos, t.demos }

// WriteErrors returns the count of failed spill writes.
func (t *Tier) WriteErrors() uint64 { return t.writeErrs }

// Degraded reports whether a spill-write failure has degraded the tier to
// hot-only operation: demotion is disabled and every cache payload stays
// resident. Results are unaffected — only the memory win is lost.
func (t *Tier) Degraded() bool { return t.disabled }

// AttachTier registers the cache with the shared cold tier. Call once,
// before the cache holds entries worth spilling (attaching later is safe —
// existing entries simply become demotion candidates).
func (c *Cache) AttachTier(t *Tier) {
	if c.tr != nil || t == nil {
		return
	}
	c.tr = t
	t.caches = append(t.caches, c)
}

// DetachTier promotes every cold entry back to the heap and unregisters the
// cache, leaving it fully functional untired. Used when a cache outlives
// the tier (plan changes that recycle cache instances).
func (c *Cache) DetachTier() {
	t := c.tr
	if t == nil {
		return
	}
	for _, e := range c.buckets {
		if e != 0 && c.ents[e-1].cold {
			c.promoteSlot(&c.ents[e-1])
		}
	}
	for i, o := range t.caches {
		if o == c {
			t.caches = append(t.caches[:i], t.caches[i+1:]...)
			break
		}
	}
	c.tr = nil
	if len(t.caches) > 0 {
		t.ci %= len(t.caches)
	} else {
		t.ci = 0
	}
	t.si = 0
}

// HotUsedBytes is the resident portion of UsedBytes — what the engine
// reports as its tier's hot bytes. Equal to UsedBytes on an untired cache.
func (c *Cache) HotUsedBytes() int { return c.usedBytes - c.coldBytes }

// ColdUsedBytes is the logical bytes of this cache's spilled payloads.
func (c *Cache) ColdUsedBytes() int { return c.coldBytes }

// freeCold releases an entry's spill page without promoting, for eviction
// and drop paths where the payload dies anyway.
func (c *Cache) freeCold(s *slot) {
	if !s.cold {
		return
	}
	c.tr.sp.Free(s.cslot)
	c.coldBytes -= int(s.cbytes)
	s.cold = false
	s.cbytes = 0
}

// Blob layout (8-byte words): word 0 is n<<1 | countedBit, word 1 is
// the tuple width, then the n×w values, then for counted entries the n mult
// words and n support words. Everything a promotion needs to rebuild the
// entry exactly; the key never leaves the heap.

// demoteSlot serializes a hot entry's payload into a fresh spill page and
// drops the heap copies. Returns the logical bytes moved cold, or 0 if the
// entry is not demotable (empty payload, oversized blob).
func (c *Cache) demoteSlot(s *slot) int {
	payload := c.slotBytes(s) - c.keyBytes
	if payload <= 0 {
		return 0
	}
	n := int(s.n)
	w := c.width // payload > 0: a tuple has set it
	counted := s.ct != nil
	words := 2 + n*w
	if counted {
		words += 2 * n
	}
	if words*8 > c.tr.sp.PageBytes() {
		return 0
	}
	slot, err := c.tr.sp.Alloc()
	if err != nil {
		c.tr.writeErrs++
		c.tr.disabled = true
		return 0
	}
	b := c.tr.sp.Bytes(slot)
	head := uint64(n) << 1
	if counted {
		head |= 1
	}
	binary.LittleEndian.PutUint64(b, head)
	binary.LittleEndian.PutUint64(b[8:], uint64(w))
	off := 16
	for _, v := range s.flat {
		binary.LittleEndian.PutUint64(b[off:], uint64(v))
		off += 8
	}
	if counted {
		for _, m := range s.ct.mult {
			binary.LittleEndian.PutUint64(b[off:], uint64(m))
			off += 8
		}
		for _, n := range s.ct.cnt {
			binary.LittleEndian.PutUint64(b[off:], uint64(n))
			off += 8
		}
	}
	s.cold = true
	s.cslot = slot
	s.cbytes = int32(payload)
	s.n, s.flat, s.ct = 0, nil, nil
	c.coldBytes += payload
	c.tr.demos++
	return payload
}

// promoteSlot rebuilds a cold entry's payload from its spill page and frees
// the page.
func (c *Cache) promoteSlot(s *slot) {
	b := c.tr.sp.Bytes(s.cslot)
	head := binary.LittleEndian.Uint64(b)
	n := int(head >> 1)
	counted := head&1 == 1
	w := int(binary.LittleEndian.Uint64(b[8:]))
	back := make([]tuple.Value, n*w)
	off := 16
	for i := range back {
		back[i] = tuple.Value(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	s.n, s.flat = int32(n), back
	if counted {
		s.ct = &counts{mult: make([]int, n), cnt: make([]int, n)}
		for i := range s.ct.mult {
			s.ct.mult[i] = int(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
		for i := range s.ct.cnt {
			s.ct.cnt[i] = int(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
	}
	c.freeCold(s)
	c.tr.promos++
}

// maybeMaintain runs the demotion clock if the cache is tiered. Call after
// any operation that can grow resident payload bytes.
func (c *Cache) maybeMaintain() {
	if c.tr != nil {
		c.tr.maintain()
	}
}

// maintain advances a clock hand over every attached cache's buckets,
// demoting entries whose reference bit is clear, until the resident payload
// footprint fits the watermark or the hand has swept twice without finding
// enough to demote.
func (t *Tier) maintain() {
	if t.disabled || len(t.caches) == 0 {
		return
	}
	hot := 0
	total := 0
	for _, c := range t.caches {
		hot += c.usedBytes - c.coldBytes
		total += len(c.buckets)
	}
	for steps := 0; hot > t.hotBytes && steps < 2*total; steps++ {
		c := t.caches[t.ci]
		e := c.buckets[t.si]
		t.si++
		if t.si >= len(c.buckets) {
			t.si = 0
			t.ci = (t.ci + 1) % len(t.caches)
		}
		if e == 0 || c.ents[e-1].cold {
			continue
		}
		s := &c.ents[e-1]
		if s.ref {
			s.ref = false
			continue
		}
		hot -= c.demoteSlot(s)
		if t.disabled {
			return
		}
	}
}
