package join

import (
	"acache/internal/cost"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Vectorized batch execution. ProcessRun pushes a run — consecutive updates
// to the same relation with the same operation — through that relation's
// pipeline in one pass instead of one pass per update. The pass is
// result-identical and charge-total-identical to the serial loop:
//
//   - Per position, maintenance operators and taps fire once on the merged
//     batch (the concatenation of every update's sub-batch in update order).
//     Each operator and tap is a per-tuple-sequential consumer, so it
//     observes exactly the per-tuple stream the serial loop would feed it.
//   - Join steps and cache lookups process each update's sub-batch
//     separately, tracked by per-position bounds, because a lookup's outcome
//     can depend on the cache entries created by the preceding update's
//     misses. Within a sub-batch, processing is literally the serial code
//     path — same probes, same charge sequence, same emission order.
//   - Work shared between updates is done once and replayed. Duplicate
//     updates (value-equal tuples, detected by runDups) replay the first
//     occurrence's recorded output segments and meter deltas at join-step
//     positions. Within one update's sub-batch, the step probe memo resolves
//     each distinct probe key's index chain once (charging one IndexProbe per
//     logical probe), engaged only where the key is a strict projection of
//     the input tuple. Cache probes need no extra memo: a direct-mapped
//     probe is a single hash + compare, and within a run the cache itself
//     memoizes — the first occurrence's miss Creates the entry its
//     duplicates then hit.
//   - The relation's own store updates are deferred to the end of the run
//     and applied in offer order. Pipeline rel never reads store rel — its
//     steps join against the other relations, miss segments likewise, and
//     self-maintenance mini-joins exclude the updated relation — so no join
//     pass can observe the deferral. The one construct that does read the
//     updated relation's store mid-update is counted (GC) maintenance via
//     multOf, which is why computeBatchable excludes it.
//
// The arena is reset once per run; composites of every update in the run
// share it and are recycled together when the next run (or serial update)
// starts.

// Batchable reports whether relation rel's pipeline currently accepts
// multi-update runs via ProcessRun. When false the engine falls back to the
// serial per-update path for that relation; results are identical either way.
// It is false while the executor shares any window store: sharers must
// interleave per update (the lockstep contract of beginSharedPass), and a run
// would apply a whole stretch before co-sharers observed any of it.
func (e *Exec) Batchable(rel int) bool { return e.sharedCount == 0 && e.pipes[rel].batchable }

// refreshBatchable recomputes every pipeline's batch eligibility. It runs
// when the attachment or maintenance configuration changes — reoptimization
// frequency, never per update — so it favors clarity over speed.
func (e *Exec) refreshBatchable() {
	for _, p := range e.pipes {
		p.batchable = p.computeBatchable()
	}
}

// computeBatchable excludes the two configurations whose semantics depend on
// per-update store state or ordering that the batch pass changes:
//
//   - Counted (GC) maintenance recomputes multiplicities from the updated
//     relation's base store (multOf's ±1 adjustment assumes the store is one
//     update behind), which deferred store updates would falsify.
//   - An instance both probed (lookup) and maintained in the same pipeline
//     would see maintenance for update j before update i<j's probes, since
//     maintenance fires on the merged batch. Structurally this requires a GC
//     cache whose reduction set contains the pipeline relation, which the
//     counted exclusion already covers, but the check is cheap and keeps the
//     invariant local.
func (p *pipeline) computeBatchable() bool {
	for _, ops := range p.maint {
		for _, op := range ops {
			if op.inst.counted() {
				return false
			}
			for _, att := range p.lookups {
				if att != nil && att.inst == op.inst {
					return false
				}
			}
		}
	}
	return true
}

// runBounds returns the per-position sub-batch bound scratch sized for npos
// positions and k updates, reusing prior capacity. Entries are written by
// whichever construct delivers tuples to a position before they are read
// (positions left empty are never read), so no zeroing is needed.
func (e *Exec) runBounds(npos, k int) [][]int32 {
	for len(e.bounds) < npos {
		e.bounds = append(e.bounds, nil)
	}
	b := e.bounds[:npos]
	for i := range b {
		if cap(b[i]) < k {
			b[i] = make([]int32, k)
			e.bounds[i] = b[i]
		}
		b[i] = b[i][:k]
		e.bounds[i] = b[i]
	}
	return b
}

// runCharges returns the per-position per-update meter-delta scratch, shaped
// like runBounds. Entries are written before they are read (a duplicate's
// source is always processed first), so no zeroing is needed.
func (e *Exec) runCharges(npos, k int) [][]cost.Units {
	for len(e.charges) < npos {
		e.charges = append(e.charges, nil)
	}
	c := e.charges[:npos]
	for i := range c {
		if cap(c[i]) < k {
			c[i] = make([]cost.Units, k)
			e.charges[i] = c[i]
		}
		c[i] = c[i][:k]
		e.charges[i] = c[i]
	}
	return c
}

// dupSlot is one entry of the duplicate-detection hash table: the first tuple
// index offered with this hash. Entries are live only while their epoch
// matches the executor's, making the per-use reset O(1).
type dupSlot struct {
	hash  uint64
	epoch uint32
	idx   int32
}

// dupHashSeed salts the duplicate table's tuple hashes.
const dupHashSeed = 0x9e3779b97f4a7c15

// dupReset empties the duplicate table and sizes it for n tuples.
func (e *Exec) dupReset(n int) {
	want := 1
	for want < 2*n {
		want <<= 1
	}
	if len(e.dupSlots) < want {
		e.dupSlots = make([]dupSlot, want)
		e.dupEpoch = 0
	}
	e.dupEpoch++
	if e.dupEpoch == 0 { // wrapped: stale entries would alias the new epoch
		clear(e.dupSlots)
		e.dupEpoch = 1
	}
}

// dupFirst offers ts[j] to the duplicate table and returns the index of the
// first tuple offered since dupReset that equals it on cols (nil: on every
// column) — j itself when there is none. All offers between two resets must
// index the same ts and pass the same cols.
func (e *Exec) dupFirst(ts []tuple.Tuple, j int, cols []int) int32 {
	t := ts[j]
	equal := func(o tuple.Tuple) bool {
		if cols == nil {
			return o.Equal(t)
		}
		for _, c := range cols {
			if o[c] != t[c] {
				return false
			}
		}
		return true
	}
	h := tuple.HashTuple(t, dupHashSeed)
	if cols != nil {
		h = tuple.HashOf(t, cols, dupHashSeed)
	}
	mask := uint64(len(e.dupSlots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &e.dupSlots[i]
		if s.epoch != e.dupEpoch {
			*s = dupSlot{hash: h, epoch: e.dupEpoch, idx: int32(j)}
			return int32(j)
		}
		if s.hash == h && equal(ts[s.idx]) {
			return s.idx
		}
	}
}

// runDups returns dup where dup[j] is the index of the first update in the
// run whose tuple equals ts[j], or −1 if ts[j] is the first occurrence. Two
// updates of a run are interchangeable when their tuples are value-equal:
// runs are same-relation same-operation, and a pipeline never reads its own
// relation's store, so an update's pass is a pure function of its tuple value
// and of state no update in the run mutates at join-step positions.
// ProcessRun uses this to replay the first occurrence's recorded output
// segments and meter deltas instead of re-probing.
func (e *Exec) runDups(ts []tuple.Tuple) []int32 {
	if cap(e.dupOf) < len(ts) {
		e.dupOf = make([]int32, len(ts))
	}
	dup := e.dupOf[:len(ts)]
	e.dupReset(len(ts))
	for j := range ts {
		if dup[j] = e.dupFirst(ts, j, nil); dup[j] == int32(j) {
			dup[j] = -1
		}
	}
	return dup
}

// ProcessRun executes a run of updates — all to relation ups[0].Rel with
// operation ups[0].Op, in stream order — through that relation's pipeline in
// one vectorized pass, then applies the deferred store updates. The caller
// (the engine's batch driver) is responsible for run admission: same
// relation and operation throughout, Batchable(rel) true, and no profiler
// span, monitor, or reoptimization boundary strictly inside the run.
func (e *Exec) ProcessRun(ups []stream.Update) Result {
	sw := cost.NewStopwatch(e.meter)
	rel := ups[0].Rel
	op := ups[0].Op
	p := e.pipes[rel]
	nsteps := len(p.steps)
	if p.arrivals == nil {
		p.arrivals = make([][]tuple.Tuple, nsteps+1)
	}
	e.arena.reset()
	arrivals := p.arrivals
	for i := range arrivals {
		arrivals[i] = arrivals[i][:0]
	}
	k := len(ups)
	bounds := e.runBounds(nsteps+1, k)
	charges := e.runCharges(nsteps+1, k)
	for j, u := range ups {
		arrivals[0] = append(arrivals[0], u.Tuple)
		bounds[0][j] = int32(j + 1)
	}
	var dup []int32
	if k > 1 {
		dup = e.runDups(arrivals[0])
	}
	outputs := 0
	for pos := 0; pos <= nsteps; pos++ {
		batch := arrivals[pos]
		if len(batch) > 0 {
			for _, m := range p.maint[pos] {
				m.apply(e, rel, batch, op)
			}
			for _, t := range p.taps[pos] {
				t.f(batch, op)
			}
		}
		if pos == nsteps {
			outputs = len(batch)
			break
		}
		if len(batch) == 0 {
			continue
		}
		if att := p.lookups[pos]; att != nil {
			e.applyLookupRun(p, att, arrivals, bounds, pos, k, op)
			continue
		}
		st := p.steps[pos]
		out := arrivals[pos+1]
		ob := bounds[pos+1]
		cc := charges[pos]
		prev := int32(0)
		for j := 0; j < k; j++ {
			end := bounds[pos][j]
			if dup != nil && dup[j] >= 0 {
				// Duplicate update: its sub-batch here is value-equal to its
				// source's (same input tuple, and no state a join step reads
				// changes within the run), so the step's outputs and charges
				// are too. Replay the source's recorded output segment and
				// meter delta instead of re-probing. Cache-lookup positions
				// are excluded: their misses mutate cache state, so every
				// update probes for real there.
				d := dup[j]
				e.meter.Charge(cc[d])
				cc[j] = cc[d]
				o0 := int32(0)
				if d > 0 {
					o0 = ob[d-1]
				}
				out = append(out, out[o0:ob[d]]...)
			} else if end > prev {
				before := e.meter.Total()
				out = st.runMemo(batch[prev:end], e.stores[st.rel], e.meter, &e.arena, out)
				cc[j] = e.meter.Total() - before
			} else {
				cc[j] = 0
			}
			ob[j] = int32(len(out))
			prev = end
		}
		arrivals[pos+1] = out
	}
	st := e.stores[rel]
	if op == stream.Insert {
		for _, u := range ups {
			st.Insert(u.Tuple)
		}
	} else {
		for _, u := range ups {
			st.Delete(u.Tuple)
		}
	}
	return Result{Outputs: outputs, Units: sw.Elapsed()}
}

// applyLookupRun is applyLookup over a run: each update's sub-batch is probed
// and — crucially — its misses are resolved (runMissSegment creates the
// cache entries) before the next update's sub-batch probes, reproducing the
// serial probe/create interleaving exactly. Every update probes the cache for
// real — duplicate replay stops at cache positions because misses mutate
// cache state, and the cache itself is the memo: a duplicate hits the entry
// its source's miss created. Deliveries land in arrivals[att.end+1] with the
// sub-batch bounds recorded for the downstream positions.
func (e *Exec) applyLookupRun(p *pipeline, att *attachment, arrivals [][]tuple.Tuple, bounds [][]int32, pos, k int, op stream.Op) {
	batch := arrivals[pos]
	dst := att.end + 1
	prev := int32(0)
	for j := 0; j < k; j++ {
		end := bounds[pos][j]
		if misses := e.applyLookup(p, att, batch[prev:end], arrivals); len(misses) > 0 {
			segOut := e.runMissSegment(p, att, misses, op, true)
			arrivals[dst] = append(arrivals[dst], segOut...)
		}
		bounds[dst][j] = int32(len(arrivals[dst]))
		prev = end
	}
}
