package relation

import (
	"fmt"
	"unsafe"

	"acache/internal/tier"
	"acache/internal/tuple"
)

// Tiered slab storage: the store's id-addressed slab is partitioned into
// fixed-width pages (perPage tuples of the relation's arity each). Hot pages
// are heap value arrays; pages demoted past the hot-bytes watermark are
// copied into a slot of a memory-mapped spill file and the slab refs of
// their ids are rewritten to point into the mapping. Because mapped memory
// is directly addressable, every probe, scan, and chain walk works on cold
// tuples unchanged — a cold access simply faults the page in — and the
// fingerprint filters in front of the indexes keep guaranteed misses from
// faulting anything.
//
// Charge identity is absolute: nothing in this file touches the cost meter,
// so results, window contents, and simulated cost totals are bit-identical
// with tiering on or off. Only HotMemoryBytes — what the engine reports to
// the memory allocator — and wall-clock time change.
//
// Concurrency: a page move rewrites the slab's refs in place, so moves are
// only legal from the goroutine owning the store. Refs are always re-fetched
// through s.tuples[id] at use time, and a page keeps its spill slot for life
// once assigned — demoting page P only ever rewrites P's own slot — so a
// tuple read before a move stays readable until the same page cycles through
// another promote+demote, which cannot happen within one store operation.

// tierPage is one slab page's table entry.
type tierPage struct {
	vals []tuple.Value // heap storage when hot; nil when cold
	slot int32         // spill slot; -1 until first demotion, then kept for life
	cold bool
	live int32  // live (non-free) ids on this page
	hits uint32 // cold accesses since demotion; drives promotion
	use  uint64 // last hot access (tier clock); drives LRU demotion
}

// promoteAfter is how many tracked accesses a cold page absorbs before it is
// promoted back to the hot tier.
const promoteAfter = 4

// storeTier is the page table and policy state of one tiered store.
type storeTier struct {
	sp       *tier.Spill
	width    int // values per tuple
	perPage  int // tuples per page
	pages    []tierPage
	hotLimit int    // watermark on hot page footprint (actual bytes)
	hotPages int    // pages currently hot
	hotLive  int    // live tuples on hot pages (TupleBytes accounting)
	clock    uint64 // access clock for LRU
	promos   uint64
	demos    uint64
	// writeErrs counts failed spill writes; the first one degrades the store
	// to hot-only operation (demotion stops, results stay exact).
	writeErrs uint64
	degraded  bool
}

func (tr *storeTier) pageFootprint() int { return tr.perPage * tr.width * 8 }

// EnableTier switches an empty store to tiered slab storage, creating its
// spill file at path. The spill's metadata word records the tuple width, so
// a warm restart re-verifies the codec geometry before trusting page refs.
func (s *Store) EnableTier(o tier.Options, path string) error {
	if s.Len() > 0 || len(s.tuples) > 0 {
		return fmt.Errorf("relation: EnableTier on non-empty store %v", s)
	}
	if s.tier != nil {
		return fmt.Errorf("relation: store %v already tiered", s)
	}
	o = o.WithDefaults()
	width := s.schema.Len()
	perPage := o.PageBytes / (8 * width)
	if perPage < 1 {
		return fmt.Errorf("relation: page size %d below tuple width %d", o.PageBytes, width)
	}
	sp, err := tier.Create(path, o.PageBytes, uint64(width), o.FS)
	if err != nil {
		return err
	}
	s.tier = &storeTier{sp: sp, width: width, perPage: perPage, hotLimit: o.HotBytes}
	return nil
}

// TierEnabled reports whether the store runs tiered slab storage.
func (s *Store) TierEnabled() bool { return s.tier != nil }

// CloseTier unmaps and removes the spill file (transient teardown).
// Idempotent; a no-op on untired stores.
func (s *Store) CloseTier() error {
	if s.tier == nil {
		return nil
	}
	return s.tier.sp.Close()
}

// CloseTierKeep unmaps but keeps the spill file on disk, for a durable
// shutdown whose checkpoint references cold pages by slot.
func (s *Store) CloseTierKeep() error {
	if s.tier == nil {
		return nil
	}
	return s.tier.sp.CloseKeep()
}

// pageValues reinterprets a spill page as a value array. Spill pages are
// 8-byte aligned by construction (tier.Spill guarantees it on every build).
func pageValues(b []byte, n int) []tuple.Value {
	return unsafe.Slice((*tuple.Value)(unsafe.Pointer(&b[0])), n)
}

// ColdTuple reads one tuple (idx within page slot) out of a reopened spill
// file — the warm-restart resolver for checkpoint page refs. The returned
// tuple is a copy, valid after the spill closes.
func ColdTuple(sp *tier.Spill, slot int32, idx, width int) tuple.Tuple {
	vals := pageValues(sp.Bytes(slot), sp.PageBytes()/8)
	out := make(tuple.Tuple, width)
	copy(out, vals[idx*width:(idx+1)*width])
	return out
}

// page returns the table entry for id, growing the table as the slab grows.
func (tr *storeTier) page(id int32) *tierPage {
	p := int(id) / tr.perPage
	for len(tr.pages) <= p {
		tr.pages = append(tr.pages, tierPage{slot: -1})
	}
	return &tr.pages[p]
}

// place copies t into id's page slot (promoting the page first if it is
// cold, allocating heap storage if the page is new) and returns the slab
// ref to the stored copy.
func (tr *storeTier) place(s *Store, id int32, t tuple.Tuple) tuple.Ref {
	p := tr.page(id)
	if p.cold {
		tr.promote(s, p, int(id)/tr.perPage)
	}
	if p.vals == nil {
		p.vals = make([]tuple.Value, tr.perPage*tr.width)
		tr.hotPages++
	}
	tr.clock++
	p.use = tr.clock
	p.live++
	tr.hotLive++
	off := (int(id) % tr.perPage) * tr.width
	copy(p.vals[off:off+tr.width], t)
	return tuple.RefOf(p.vals[off:])
}

// unplace records id's removal for the resident accounting (the ref is
// cleared by the caller).
func (tr *storeTier) unplace(id int32) {
	p := tr.page(id)
	p.live--
	if !p.cold {
		tr.hotLive--
	}
}

// touch records an access to id's page: cold hits accumulate toward
// promotion, hot hits refresh the LRU clock. Called from the probe and scan
// walks; purely advisory, never charged.
func (tr *storeTier) touch(s *Store, id int32) {
	pi := int(id) / tr.perPage
	p := &tr.pages[pi]
	tr.clock++
	if p.cold {
		p.hits++
		if p.hits >= promoteAfter {
			tr.promote(s, p, pi)
			p.use = tr.clock
		}
		return
	}
	p.use = tr.clock
}

// promote copies a cold page back to the heap and rewrites its ids'
// refs. The page keeps its spill slot (reused at the next demotion).
func (tr *storeTier) promote(s *Store, p *tierPage, pi int) {
	vals := make([]tuple.Value, tr.perPage*tr.width)
	copy(vals, pageValues(tr.sp.Bytes(p.slot), tr.perPage*tr.width))
	p.vals = vals
	p.cold = false
	p.hits = 0
	tr.hotPages++
	tr.hotLive += int(p.live)
	tr.promos++
	tr.rewrite(s, p, pi, vals)
}

// demote copies a hot page into its spill slot and rewrites its ids'
// refs into the mapping.
func (tr *storeTier) demote(s *Store, p *tierPage, pi int) error {
	if p.slot < 0 {
		slot, err := tr.sp.Alloc()
		if err != nil {
			return err
		}
		p.slot = slot
	}
	cold := pageValues(tr.sp.Bytes(p.slot), tr.perPage*tr.width)
	copy(cold, p.vals)
	p.vals = nil
	p.cold = true
	p.hits = 0
	tr.hotPages--
	tr.hotLive -= int(p.live)
	tr.demos++
	tr.rewrite(s, p, pi, cold)
	return nil
}

// rewrite repoints the slab refs of every live id on page pi into vals.
func (tr *storeTier) rewrite(s *Store, p *tierPage, pi int, vals []tuple.Value) {
	lo := pi * tr.perPage
	hi := lo + tr.perPage
	if hi > len(s.tuples) {
		hi = len(s.tuples)
	}
	for id := lo; id < hi; id++ {
		if s.tuples[id] != (tuple.Ref{}) {
			s.tuples[id] = tuple.RefOf(vals[(id-lo)*tr.width:])
		}
	}
}

// maintain demotes least-recently-used hot pages while the hot footprint
// exceeds the watermark. Called after inserts (the only point hot bytes
// grow); keeps at least one page hot so the active fill page never thrashes.
func (tr *storeTier) maintain(s *Store) {
	fp := tr.pageFootprint()
	for tr.hotPages > 1 && tr.hotPages*fp > tr.hotLimit {
		victim, min := -1, uint64(0)
		for i := range tr.pages {
			p := &tr.pages[i]
			if p.vals == nil {
				continue
			}
			if victim < 0 || p.use < min {
				victim, min = i, p.use
			}
		}
		if victim < 0 {
			return
		}
		if err := tr.demote(s, &tr.pages[victim], victim); err != nil {
			// Spill I/O failed (disk full, …): stop demoting — the store
			// degrades to fully hot, which is always correct — and leave the
			// failure visible through TierWriteErrors / TierDegraded.
			tr.writeErrs++
			tr.degraded = true
			tr.hotLimit = int(^uint(0) >> 1)
			return
		}
	}
}

// HotMemoryBytes is the store's resident tuple footprint — live tuples on
// hot pages, in the same TupleBytes units as MemoryBytes — which is what
// the engine reports to the memory allocator. Equal to MemoryBytes on an
// untired store.
func (s *Store) HotMemoryBytes() int {
	if s.tier == nil {
		return s.MemoryBytes()
	}
	return s.tier.hotLive * TupleBytes
}

// ColdMemoryBytes is the tuple footprint demoted to the spill file.
func (s *Store) ColdMemoryBytes() int {
	if s.tier == nil {
		return 0
	}
	return (s.live - s.tier.hotLive) * TupleBytes
}

// TierCounters returns cumulative page promotions and demotions.
func (s *Store) TierCounters() (promotions, demotions uint64) {
	if s.tier == nil {
		return 0, 0
	}
	return s.tier.promos, s.tier.demos
}

// TierWriteErrors returns the count of failed spill writes.
func (s *Store) TierWriteErrors() uint64 {
	if s.tier == nil {
		return 0
	}
	return s.tier.writeErrs
}

// TierDegraded reports whether a spill-write failure has degraded the store
// to hot-only operation: demotion is disabled, every tuple stays resident,
// and results remain exact — only the cold-tier memory win is lost.
func (s *Store) TierDegraded() bool {
	return s.tier != nil && s.tier.degraded
}

// EachDurable visits every stored tuple in scan order for checkpointing:
// hot tuples pass slot −1 (the checkpoint inlines their values), cold
// tuples pass their spill slot and index within the page (the checkpoint
// records the ref; the spill file carries the bytes).
func (s *Store) EachDurable(f func(t tuple.Tuple, slot int32, idx int)) {
	s.eachLive(func(id int32) bool {
		if s.tier != nil && s.tier.page(id).cold {
			f(s.at(id), s.tier.page(id).slot, int(id)%s.tier.perPage)
		} else {
			f(s.at(id), -1, 0)
		}
		return true
	})
}
