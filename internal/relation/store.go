// Package relation implements the windowed relation stores the MJoin
// pipelines probe: the current contents of each sliding window, with hash
// indexes on join attributes and an index-free scan path for nested-loop
// joins (used by the Figure 10 experiment, which drops the index on S.B).
//
// Storage is a slab of 8-byte references: id -> the tuple the caller handed
// in (a window's own storage, never a copy), ids recycled LIFO through a free
// list so the slab is as long as the peak live count and a scan is a walk over
// it that skips the free ids. A column a nested-loop join compares on is also
// kept dense, one value per slab id beside the slab, for ScanEq. Every hash
// index is an open-addressing table keyed by an inline 64-bit hash of its key
// columns, its deletes closing their gap by backward shift — no key string is
// materialized and no tombstone left on the insert/delete/probe paths, so
// steady-state window maintenance neither allocates nor rehashes. A one-column
// key is exact: its hash is a bijection of the value, so a slot whose hash
// matches is the key's chain and no resident tuple is loaded to confirm it;
// wider keys compare their columns on a hash match. There is no
// table keyed by the whole tuple: a delete finds its victim on the tuple's key
// chain in the store's first index, where a window expiry sits at the head,
// and a store with no index scans (as every probe of it already does).
package relation

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"acache/internal/cost"
	"acache/internal/tuple"
)

// TupleBytes is the paper's input tuple size (Section 7.1); stores and
// subresult structures account memory in these units.
const TupleBytes = 32

// hashSeed is the fixed seed for the store's inline hashing. Deterministic
// across runs so fixed-seed workloads reproduce bit-identically.
const hashSeed uint64 = 0x9e3779b97f4a7c15

// Chain-link sentinel: end of a bucket chain.
const nilID int32 = -1

// emptySlot, stored in oaSlot.head, marks a free slot: probe chains stop here.
const emptySlot int32 = -1

// oaSlot is one open-addressing slot: the key hash plus the head tuple id of
// the chain of tuples sharing that key (chained through a per-table next
// array indexed by tuple id).
type oaSlot struct {
	hash       uint64
	head, tail int32
}

// oaTable is a linear-probing open-addressing table from 64-bit key hashes
// to tuple-id chains. Equality on hash collisions is delegated to the caller
// through an eq callback that compares the probe key against a resident id;
// a nil eq matches on the hash alone, for keys the hash cannot collide on.
type oaTable struct {
	slots []oaSlot
	mask  uint64
	live  int // occupied slots
}

const minTableSize = 8

func newOATable() oaTable {
	var t oaTable
	t.reset(minTableSize)
	return t
}

// find returns the slot index holding hash with eq(head) true (or eq nil),
// or -1.
func (t *oaTable) find(hash uint64, eq func(id int32) bool) int {
	for i := hash & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.head == emptySlot {
			return -1
		}
		if s.hash == hash && (eq == nil || eq(s.head)) {
			return int(i)
		}
	}
}

// findOrClaim returns the slot index for hash/eq, or the empty slot that ends
// its probe sequence when the key is absent (claimed reports which). The
// caller must immediately occupy a claimed slot.
func (t *oaTable) findOrClaim(hash uint64, eq func(id int32) bool) (idx int, claimed bool) {
	for i := hash & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.head == emptySlot {
			return int(i), true
		}
		if s.hash == hash && (eq == nil || eq(s.head)) {
			return int(i), false
		}
	}
}

// occupy marks a claimed slot live and reports whether the table has reached
// 3/4 load: the caller then rehashes into one twice the size (it owns chain
// storage, so it drives the rebuild).
func (t *oaTable) occupy(idx int, hash uint64, head, tail int32) (full bool) {
	t.slots[idx] = oaSlot{hash: hash, head: head, tail: tail}
	t.live++
	return t.live*4 >= len(t.slots)*3
}

// clearSlot removes a slot's chain and closes the gap by backward shift: each
// later slot of the cluster whose home lies at or before the gap moves into
// it, so every probe sequence stays unbroken and no tombstone is left to count
// against the load.
func (t *oaTable) clearSlot(idx int) {
	gap := uint64(idx)
	for j := (gap + 1) & t.mask; t.slots[j].head != emptySlot; j = (j + 1) & t.mask {
		if home := t.slots[j].hash & t.mask; (j-home)&t.mask >= (j-gap)&t.mask {
			t.slots[gap] = t.slots[j]
			gap = j
		}
	}
	t.slots[gap].head = emptySlot
	t.live--
}

// reset re-allocates the slot array at the given power-of-two size; the
// caller re-inserts every chain afterwards.
func (t *oaTable) reset(size int) {
	t.slots = make([]oaSlot, size)
	t.mask = uint64(size - 1)
	for i := range t.slots {
		t.slots[i].head = emptySlot
	}
	t.live = 0
}

// insertChain re-inserts a whole chain during a rehash: no equality check is
// needed because chains are unique per key.
func (t *oaTable) insertChain(hash uint64, head, tail int32) {
	idx, _ := t.findOrClaim(hash, func(int32) bool { return false })
	t.occupy(idx, hash, head, tail)
}

// Store holds the current contents of one relation's sliding window.
// Tuples are identified by slab ids (dense, free-list recycled) so indexes
// survive arbitrary insert/delete interleavings. All mutating and probing
// operations charge the configured cost meter.
type Store struct {
	rel    int
	schema *tuple.Schema
	width  int // schema.Len(): the one arity every stored tuple has
	meter  *cost.Meter

	tuples  []tuple.Ref // slab: id -> tuple (zero when free)
	freeIDs []int32     // reused LIFO
	live    int         // ids in use

	indexes map[string]*HashIndex
	idxList []*HashIndex // map values as a slice, so hot paths avoid map iteration

	mutations uint64 // bumped on every Insert/Delete; validates probe memos

	// shared, when non-nil, marks a store attached to more than one executor
	// (cross-query window sharing). See ApplyShared for the protocol.
	shared *sharedState

	// dense[c], when non-nil, is schema column c's value per slab id (stale
	// at a free id): the dense scan column ScanEq walks, kept for the
	// columns CreateScanColumn was asked for. Nil until the first one.
	dense [][]tuple.Value
}

// sharedState is the bookkeeping of a cross-query shared store: every sharer
// feeds the same per-relation update sequence, the first arrival of each
// update mutates the store, and later arrivals replay only the cost charges.
// Outcomes are logged so replays charge exactly what the physical application
// charged (a delete's tariff depends on whether the tuple was found).
type sharedState struct {
	baseSeq uint64         // log[0] records the outcome of op baseSeq+1
	lastSeq uint64         // highest physically applied op sequence
	log     []sharedOp     // outcomes of ops baseSeq+1 .. lastSeq
	cursors map[int]uint64 // sharer id -> last consumed op sequence
	nextID  int
}

type sharedOp struct {
	del   bool
	found bool // delete outcome (an absent tuple charges nothing)
	width int  // inserted tuple width (drives the KeyExtract replay charge)
}

// Share registers a new sharer and returns its id. The sharer's cursor starts
// at the store's current sequence, so sharing must be established before any
// shared updates flow (the server enforces this by only adopting empty
// stores).
func (s *Store) Share() int {
	if s.shared == nil {
		s.shared = &sharedState{cursors: make(map[int]uint64)}
	}
	id := s.shared.nextID
	s.shared.nextID++
	s.shared.cursors[id] = s.shared.lastSeq
	return id
}

// Unshare removes a sharer. The store and its contents survive for the
// remaining sharers; the last departure leaves the store intact for its
// owner to drop.
func (s *Store) Unshare(id int) {
	if s.shared == nil {
		return
	}
	delete(s.shared.cursors, id)
	s.trimSharedLog()
}

// SharedSeq returns the number of shared updates physically applied so far.
func (s *Store) SharedSeq() uint64 {
	if s.shared == nil {
		return 0
	}
	return s.shared.lastSeq
}

// SharedLag returns how many applied updates the given sharer has not yet
// consumed. Executors use it to enforce the lockstep contract: every sharer
// must process update k of a shared relation before any sharer processes
// update k+1, so the lag is 0 for every store except the one being updated,
// where it is at most 1.
func (s *Store) SharedLag(id int) uint64 {
	if s.shared == nil {
		return 0
	}
	return s.shared.lastSeq - s.shared.cursors[id]
}

// ApplyShared applies one window update on behalf of sharer id. The first
// sharer to present update k mutates the store and logs the outcome; every
// later sharer replays only the cost charges of that outcome against its own
// meter (the caller rebinds the store meter per pass), so each sharer's
// cost totals are bit-identical to an unshared store fed the same sequence.
// A sharer presenting an update more than one ahead of the log panics: it
// means the sharers were not fed in per-update lockstep, and earlier join
// passes already probed windows from the wrong instant.
func (s *Store) ApplyShared(id int, op sharedOpKind, t tuple.Tuple) {
	sh := s.shared
	n := sh.cursors[id] + 1
	switch {
	case n == sh.lastSeq+1:
		oc := sharedOp{del: op == SharedDelete, width: len(t)}
		if oc.del {
			oc.found = s.Delete(t)
		} else {
			s.Insert(t)
		}
		sh.log = append(sh.log, oc)
		sh.lastSeq = n
	case n <= sh.lastSeq:
		s.replayCharges(sh.log[n-sh.baseSeq-1])
	default:
		panic(fmt.Sprintf("relation: shared store %v fed out of order (sharer %d at seq %d, store at %d); sharers must interleave per update", s, id, n, sh.lastSeq))
	}
	sh.cursors[id] = n
	s.trimSharedLog()
}

// sharedOpKind tags ApplyShared operations.
type sharedOpKind uint8

const (
	SharedInsert sharedOpKind = iota
	SharedDelete
)

// replayCharges charges the meter exactly what the physical application of
// the logged op charged, without touching the store.
func (s *Store) replayCharges(oc sharedOp) {
	if oc.del {
		if !oc.found {
			return // Delete of an absent tuple returns before any charge.
		}
		s.meter.Charge(cost.HashInsert)
		s.meter.ChargeN(cost.HashInsert, len(s.idxList))
		return
	}
	s.meter.Charge(cost.HashInsert)
	s.meter.ChargeN(cost.KeyExtract, oc.width)
	s.meter.ChargeN(cost.HashInsert, len(s.idxList))
}

// trimSharedLog drops log entries every sharer has consumed. Under the
// lockstep contract the log holds at most one entry, so the fast path resets
// it in place.
func (s *Store) trimSharedLog() {
	sh := s.shared
	if sh == nil || len(sh.log) == 0 {
		return
	}
	min := sh.lastSeq
	for _, c := range sh.cursors {
		if c < min {
			min = c
		}
	}
	if min >= sh.lastSeq {
		sh.log = sh.log[:0]
		sh.baseSeq = sh.lastSeq
	} else if min > sh.baseSeq {
		sh.log = append(sh.log[:0], sh.log[min-sh.baseSeq:]...)
		sh.baseSeq = min
	}
}

// NewStore creates an empty store for relation rel with the given schema.
// meter may be shared across stores; it must not be nil.
func NewStore(rel int, schema *tuple.Schema, meter *cost.Meter) *Store {
	return &Store{
		rel:     rel,
		schema:  schema,
		width:   schema.Len(),
		meter:   meter,
		indexes: make(map[string]*HashIndex),
	}
}

// SetMeter redirects the store's cost charges to m. A cross-query shared
// store is rebound to the executor about to run a pass over it, so each
// sharer charges its own tariff against the common structure.
func (s *Store) SetMeter(m *cost.Meter) { s.meter = m }

// Len returns the number of tuples currently stored.
func (s *Store) Len() int { return s.live }

// at returns the tuple stored under a live id.
func (s *Store) at(id int32) tuple.Tuple { return s.tuples[id].Tuple(s.width) }

// eachLive visits the live ids in slab order until f returns false.
func (s *Store) eachLive(f func(id int32) bool) {
	for id, r := range s.tuples {
		if r != (tuple.Ref{}) && !f(int32(id)) {
			return
		}
	}
}

// indexName canonicalizes an attribute-name set into an index identifier.
func indexName(names []string) string {
	if len(names) == 1 {
		return names[0]
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}

// IndexNameOf returns the canonical index identifier for an attribute-name
// set.
func IndexNameOf(names []string) string { return indexName(names) }

// CreateIndex builds (or returns) a hash index on the given attribute names.
// Existing tuples are back-filled.
func (s *Store) CreateIndex(names ...string) *HashIndex {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	id := strings.Join(sorted, ",")
	if idx, ok := s.indexes[id]; ok {
		return idx
	}
	cols := make([]int, len(sorted))
	for i, n := range sorted {
		cols[i] = s.schema.MustColOf(tuple.Attr{Rel: s.rel, Name: n})
	}
	idx := &HashIndex{store: s, cols: cols, exact: len(cols) == 1}
	idx.table = newOATable()
	idx.next = make([]int32, len(s.tuples))
	s.eachLive(func(tid int32) bool {
		idx.insert(s.at(tid), tid)
		return true
	})
	s.indexes[id] = idx
	s.idxList = append(s.idxList, idx)
	return idx
}

// Index returns the index on the given attribute names, or nil when absent.
func (s *Store) Index(names ...string) *HashIndex { return s.indexes[indexName(names)] }

// CreateScanColumn keeps schema column col dense for ScanEq, back-filling the
// live tuples; asking again for a kept column is a no-op. A store never drops
// one.
func (s *Store) CreateScanColumn(col int) {
	if col < 0 || col >= s.width {
		panic(fmt.Sprintf("relation: %v has no column %d", s, col))
	}
	if s.dense == nil {
		s.dense = make([][]tuple.Value, s.width)
	}
	if s.dense[col] != nil {
		return
	}
	vals := make([]tuple.Value, len(s.tuples))
	s.eachLive(func(id int32) bool {
		vals[id] = s.at(id)[col]
		return true
	})
	s.dense[col] = vals
}

// allocID claims a slab id for t, growing every per-id side array in step.
// The slab aliases the caller's tuple.
func (s *Store) allocID(t tuple.Tuple) int32 {
	if len(t) != s.width || s.width == 0 {
		panic(fmt.Sprintf("relation: %v given a tuple of %d values, its schema has %d", s, len(t), s.width))
	}
	var id int32
	if n := len(s.freeIDs); n > 0 {
		id = s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
	} else {
		id = int32(len(s.tuples))
		s.tuples = append(s.tuples, tuple.Ref{})
		for _, idx := range s.idxList {
			idx.next = append(idx.next, nilID)
		}
	}
	s.tuples[id] = tuple.RefOf(t)
	if s.dense != nil {
		s.setDense(id, t)
	}
	s.live++
	return id
}

// setDense writes t's values at id into the dense scan columns, growing them
// with the slab.
func (s *Store) setDense(id int32, t tuple.Tuple) {
	for c, vals := range s.dense {
		switch {
		case vals == nil:
		case int(id) < len(vals):
			vals[id] = t[c]
		default:
			s.dense[c] = append(vals, t[c])
		}
	}
}

// Insert adds t to the store and all indexes.
func (s *Store) Insert(t tuple.Tuple) {
	s.mutations++
	id := s.allocID(t)
	s.meter.Charge(cost.HashInsert)
	s.meter.ChargeN(cost.KeyExtract, len(t))
	for _, idx := range s.idxList {
		idx.insert(t, id)
		s.meter.Charge(cost.HashInsert)
	}
}

// Delete removes t itself when the store holds it (a store aliases the tuples
// it is given, so a window expiry releases exactly the storage the window
// released), else the first tuple equal to t on its key chain in the
// store's first index — the oldest, for an index kept since the store was
// empty. A store with no index scans for it, as every probe of it does. It
// reports whether a tuple was found; deleting an absent tuple is a no-op
// (windows only delete what they inserted, so false indicates a driver bug
// and is surfaced to tests).
func (s *Store) Delete(t tuple.Tuple) bool {
	id := nilID
	if len(s.idxList) > 0 {
		id = s.idxList[0].remove(t, nilID)
	} else {
		held := tuple.RefOf(t)
		s.eachLive(func(o int32) bool {
			if s.tuples[o] == held {
				id = o
				return false
			} else if id == nilID && s.at(o).Equal(t) {
				id = o
			}
			return true
		})
	}
	if id == nilID {
		return false
	}
	s.mutations++
	s.meter.Charge(cost.HashInsert)
	for i, idx := range s.idxList {
		if i > 0 { // the first index let go of it above
			idx.remove(s.at(id), id)
		}
		s.meter.Charge(cost.HashInsert)
	}
	s.tuples[id] = tuple.Ref{}
	s.freeIDs = append(s.freeIDs, id)
	s.live--
	return true
}

// Scan iterates the store's current tuples in unspecified order, charging
// nested-loop scan cost per tuple visited. The callback returns false to
// stop early. Tuples must not be retained or mutated by the callback. A
// nested-loop join with an equality check uses ScanEq instead; Scan is the
// cross product's path and everything else's that reads the whole store.
func (s *Store) Scan(f func(tuple.Tuple) bool) {
	s.eachLive(func(id int32) bool {
		s.meter.Charge(cost.ScanStep)
		return f(s.at(id))
	})
}

// ScanEq is a full Scan that hands f only the tuples whose column col equals
// v, in the order Scan visits them, for a nested-loop join's first equality
// check. It charges what that Scan charges, one ScanStep per live tuple, all
// up front, and then compares v against col's dense column (CreateScanColumn
// must have been called for col), so a non-matching tuple costs one 8-byte
// compare instead of a callback and a tuple dereference. A free id's stale
// value may equal v; its zero slab entry keeps it from matching. Tuples must
// not be retained or mutated by f.
func (s *Store) ScanEq(col int, v tuple.Value, f func(tuple.Tuple)) {
	s.meter.ChargeN(cost.ScanStep, s.live)
	vals := s.dense[col]
	refs := s.tuples[:len(vals)]
	for id, x := range vals {
		if x == v && refs[id] != (tuple.Ref{}) {
			f(refs[id].Tuple(s.width))
		}
	}
}

// CountOf returns the number of stored tuples equal to t (windows may hold
// duplicate rows). Used by globally-consistent caches to recompute a cached
// tuple's segment-join multiplicity from base-store value counts.
func (s *Store) CountOf(t tuple.Tuple) int {
	s.meter.Charge(cost.HashProbe)
	return s.Holding(t)
}

// Holding is CountOf without the meter charge, for bookkeeping outside the
// cost model (the sharded engine's guard against deletes of shed inserts).
func (s *Store) Holding(t tuple.Tuple) int {
	n := 0
	if len(s.idxList) == 0 {
		s.eachLive(func(id int32) bool {
			if s.at(id).Equal(t) {
				n++
			}
			return true
		})
		return n
	}
	ix := s.idxList[0]
	if slot := ix.slotOf(t); slot >= 0 {
		for id := ix.table.slots[slot].head; id != nilID; id = ix.next[id] {
			if s.at(id).Equal(t) {
				n++
			}
		}
	}
	return n
}

// All returns the current tuples (shared values); for checkpoints, tests and
// oracles.
func (s *Store) All() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, s.live)
	s.eachLive(func(id int32) bool {
		out = append(out, s.at(id))
		return true
	})
	return out
}

// Probe looks up the tuples matching key on the given index, charging join
// probe cost. The returned slice must not be mutated. This is the
// allocating convenience path; hot loops use ProbeEach.
func (s *Store) Probe(idx *HashIndex, key tuple.Key) []tuple.Tuple {
	s.meter.Charge(cost.IndexProbe)
	vals := key.Values()
	var out []tuple.Tuple
	idx.each(tuple.HashValues(vals, hashSeed), vals, func(t tuple.Tuple) { out = append(out, t) })
	return out
}

// ProbeEach visits the index's tuples whose key columns equal vals, in
// insertion order, charging one join probe. Visited tuples must not be
// retained or mutated. It is the zero-allocation probe path: no key is
// materialized and no result slice is built.
func (s *Store) ProbeEach(idx *HashIndex, vals []tuple.Value, f func(t tuple.Tuple)) {
	s.meter.Charge(cost.IndexProbe)
	idx.each(tuple.HashValues(vals, hashSeed), vals, f)
}

// probeMemoSlots sizes a ProbeMemo's open-addressing table. Runs are capped
// by the profiler's rate span (well under the table size), so the fill bound
// below exists only as a safety valve, not a working limit.
const (
	probeMemoSlots   = 512 // power of two
	probeMemoMaxFill = probeMemoSlots / 2
)

// memoEntry is one memoized chain: the probe key (a window into keys) and the
// recorded chain (a window into ids). An entry is live only when its epoch
// matches the memo's, which makes reset O(1) instead of a table clear.
type memoEntry struct {
	hash       uint64
	epoch      uint32
	koff, klen int32
	off, n     int32
}

// ProbeMemo caches the tuple-id chains returned by index probes, keyed by the
// packed probe values, so repeated equal-key probes within a batch skip the
// slot search and chain walk. A memo is valid only for one (index,
// store-mutation) pair; ProbeEachMemo resets it automatically when either
// moves, so callers just embed a ProbeMemo and reuse it across batches. The
// table is a fixed epoch-stamped open-addressing array — the memo sits on the
// hot path, where a map's hashing and key-allocation overhead would cost more
// than the probes it saves.
type ProbeMemo struct {
	idx       *HashIndex
	mutations uint64
	epoch     uint32
	fill      int
	entries   []memoEntry
	keyBuf    []byte
	keys      []byte
	ids       []int32
}

func (m *ProbeMemo) reset(idx *HashIndex, mutations uint64) {
	m.idx = idx
	m.mutations = mutations
	m.fill = 0
	m.ids = m.ids[:0]
	m.keys = m.keys[:0]
	if m.entries == nil {
		m.entries = make([]memoEntry, probeMemoSlots)
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: stale entries would alias the new epoch
		clear(m.entries)
		m.epoch = 1
	}
}

// ProbeEachMemo is ProbeEach with a chain memo: the first probe of a key
// walks the index and records the chain's tuple ids; subsequent probes of the
// same key replay the recorded chain in the same insertion order. Charges are
// identical to ProbeEach in both cases — one IndexProbe per logical probe —
// so the simulated cost model cannot tell the paths apart. The caller must
// not mutate the store between memoized probes it expects to share (the memo
// detects mutation and resets, which is correct but forfeits sharing).
func (s *Store) ProbeEachMemo(idx *HashIndex, vals []tuple.Value, memo *ProbeMemo, f func(t tuple.Tuple)) {
	if memo.idx != idx || memo.mutations != s.mutations || memo.entries == nil {
		memo.reset(idx, s.mutations)
	}
	s.meter.Charge(cost.IndexProbe)
	h := tuple.HashValues(vals, hashSeed)
	memo.keyBuf = tuple.AppendKeyValues(memo.keyBuf[:0], vals)
	var free *memoEntry
	for i := h & (probeMemoSlots - 1); ; i = (i + 1) & (probeMemoSlots - 1) {
		e := &memo.entries[i]
		if e.epoch != memo.epoch {
			if memo.fill < probeMemoMaxFill {
				free = e
			}
			break
		}
		if e.hash == h && int(e.klen) == len(memo.keyBuf) &&
			bytes.Equal(memo.keys[e.koff:e.koff+e.klen], memo.keyBuf) {
			for _, id := range memo.ids[e.off : e.off+e.n] {
				f(s.at(id))
			}
			return
		}
	}
	if free == nil { // table at the fill bound: probe directly, don't record
		idx.each(h, vals, f)
		return
	}
	off := int32(len(memo.ids))
	if slot := idx.findVals(h, vals); slot >= 0 {
		for id := idx.table.slots[slot].head; id != nilID; id = idx.next[id] {
			memo.ids = append(memo.ids, id)
			f(s.at(id))
		}
	}
	koff := int32(len(memo.keys))
	memo.keys = append(memo.keys, memo.keyBuf...)
	*free = memoEntry{
		hash: h, epoch: memo.epoch,
		koff: koff, klen: int32(len(memo.keyBuf)),
		off: off, n: int32(len(memo.ids)) - off,
	}
	memo.fill++
}

// MemoryBytes returns the store's tuple footprint (window contents only; the
// paper's memory experiments budget join subresults, not base windows).
func (s *Store) MemoryBytes() int { return s.live * TupleBytes }

func (s *Store) String() string {
	return fmt.Sprintf("R%d[%d tuples]", s.rel+1, s.Len())
}

// HashIndex is an equality index mapping key values to tuple-id chains in an
// open-addressing table. Chains are linked through a per-index next array
// indexed by slab id, preserving insertion order.
type HashIndex struct {
	store *Store
	cols  []int
	table oaTable
	next  []int32 // id -> next id in its bucket chain

	// exact marks a one-column key, which its 64-bit slot hash determines:
	// HashOf over one value v is MixWord(MixWord(seed, v), 1), and every
	// step of MixWord (xor, odd multiply, xorshift) is invertible, so equal
	// hashes mean equal keys. Its chains are confirmed on the hash alone,
	// without loading a resident tuple; a wider key compares columns.
	exact bool
}

// Cols returns the schema columns (sorted by attribute name) the index keys
// on. The returned slice is the index's own and must not be modified.
func (ix *HashIndex) Cols() []int { return ix.cols }

// keyEquals reports whether tuple o's key columns equal t's.
func (ix *HashIndex) keyEquals(o, t tuple.Tuple) bool {
	for _, c := range ix.cols {
		if o[c] != t[c] {
			return false
		}
	}
	return true
}

// valsEqual reports whether tuple o's key columns equal the probe values.
func (ix *HashIndex) valsEqual(o tuple.Tuple, vals []tuple.Value) bool {
	for i, c := range ix.cols {
		if o[c] != vals[i] {
			return false
		}
	}
	return true
}

func (ix *HashIndex) insert(t tuple.Tuple, id int32) {
	h := tuple.HashOf(t, ix.cols, hashSeed)
	var slot int
	var claimed bool
	if ix.exact {
		slot, claimed = ix.table.findOrClaim(h, nil)
	} else {
		s := ix.store
		slot, claimed = ix.table.findOrClaim(h, func(o int32) bool { return ix.keyEquals(s.at(o), t) })
	}
	ix.next[id] = nilID
	if claimed {
		if ix.table.occupy(slot, h, id, id) {
			ix.rehash()
		}
		return
	}
	sl := &ix.table.slots[slot]
	ix.next[sl.tail] = id
	sl.tail = id
}

// slotOf returns the table slot of t's key chain, -1 when no stored tuple
// shares t's key.
func (ix *HashIndex) slotOf(t tuple.Tuple) int {
	h := tuple.HashOf(t, ix.cols, hashSeed)
	if ix.exact {
		return ix.table.find(h, nil)
	}
	s := ix.store
	return ix.table.find(h, func(o int32) bool { return ix.keyEquals(s.at(o), t) })
}

// findVals returns the table slot of the chain keyed on the probe values
// (whose hash is h), -1 when there is none.
func (ix *HashIndex) findVals(h uint64, vals []tuple.Value) int {
	if ix.exact {
		return ix.table.find(h, nil)
	}
	s := ix.store
	return ix.table.find(h, func(o int32) bool { return ix.valsEqual(s.at(o), vals) })
}

// remove unlinks one tuple from t's key chain and returns its id, nilID when
// there is none: the tuple stored under id or, asked with nilID, the one
// Store.Delete(t) is to remove — t itself if the chain holds it, else the
// first tuple on it equal to t. A window expiry is the head of its chain, so
// either walk ends at its first step. The last tuple to go takes the chain
// along.
func (ix *HashIndex) remove(t tuple.Tuple, id int32) int32 {
	slot := ix.slotOf(t)
	if slot < 0 {
		return nilID
	}
	s, sl, held := ix.store, &ix.table.slots[slot], tuple.RefOf(t)
	victim, prev := nilID, nilID
	for p, c := nilID, sl.head; c != nilID; p, c = c, ix.next[c] {
		if c == id || id == nilID && s.tuples[c] == held {
			victim, prev = c, p
			break
		} else if id == nilID && victim == nilID && s.at(c).Equal(t) {
			victim, prev = c, p
		}
	}
	if victim == nilID {
		return nilID
	}
	switch next := ix.next[victim]; {
	case prev != nilID:
		ix.next[prev] = next
		if next == nilID {
			sl.tail = prev
		}
	case next != nilID:
		sl.head = next
	default:
		ix.table.clearSlot(slot)
	}
	return victim
}

func (ix *HashIndex) rehash() {
	old := ix.table.slots
	ix.table.reset(2 * len(old))
	for i := range old {
		if old[i].head != emptySlot {
			ix.table.insertChain(old[i].hash, old[i].head, old[i].tail)
		}
	}
}

// each visits the chain for the probe values in insertion order.
func (ix *HashIndex) each(hash uint64, vals []tuple.Value, f func(t tuple.Tuple)) {
	slot := ix.findVals(hash, vals)
	if slot < 0 {
		return
	}
	s := ix.store
	for id := ix.table.slots[slot].head; id != nilID; id = ix.next[id] {
		f(s.at(id))
	}
}
