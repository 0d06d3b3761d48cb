package join

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/relation"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Options configure executor construction.
type Options struct {
	// ScanOnly lists attributes whose relations must not be probed through
	// a hash index on that attribute: joins touching them use nested-loop
	// scans. This reproduces Figure 10, which drops the hash index on S.B.
	ScanOnly []tuple.Attr
	// StoreProvider, when non-nil, is consulted for each relation before a
	// private store is created: returning a store adopts it as a shared
	// window (the executor registers itself as a sharer and routes window
	// updates through Store.ApplyShared); returning nil keeps the private
	// path. indexSig is the canonical signature of the indexes this
	// executor will create on the store, so the provider can refuse stores
	// whose tariff structure would differ. A hosting Server uses this to
	// share one window store across equivalent registered queries.
	StoreProvider StoreProvider
}

// StoreProvider resolves a relation to a pre-existing shared store, or nil.
type StoreProvider func(rel int, schema *tuple.Schema, meter *cost.Meter, indexSig string) *relation.Store

// Result summarizes the processing of one update.
type Result struct {
	// Outputs is the number of n-way join result updates emitted.
	Outputs int
	// Units is the work charged to the meter for this update.
	Units cost.Units
}

// Profile carries the per-operator measurements of one profiled update
// (Appendix A): StepInputs[j] is δ_j, the tuples entering operator ⋈_ij
// (index len(steps) holds the pipeline's output count, the paper's
// d_{i,k+1} for k = n−2), and StepUnits[j] is τ_j, the work spent in ⋈_ij.
// The slices are the executor's scratch: valid until its next ProcessProfiled.
type Profile struct {
	StepInputs []int
	StepUnits  []cost.Units
}

// Exec is the MJoin executor: n windowed relation stores and n compiled
// pipelines, with zero or more cache attachments.
type Exec struct {
	q        *query.Query
	meter    *cost.Meter
	stores   []*relation.Store
	pipes    []*pipeline
	ord      planner.Ordering
	scanOnly map[tuple.Attr]bool
	nextTap  int

	// arena holds the composite tuples built while processing one update
	// (or one batch run); it is reset when the next update or run starts.
	// keyBuf is the shared packed-key scratch for cache probes and
	// maintenance. Both rely on the executor being single-goroutine.
	arena  valueArena
	keyBuf []byte

	// Miss-path and profiling scratch, reused across updates: missBuf holds
	// one (sub-)batch's cache-lookup misses; in runMissSegment seed is the
	// one-tuple batch entering the segment, segBuf the step outputs
	// (alternating, so a step never reads the buffer it writes), segAll the
	// segment's collected output and segVals the value multiset of the entry
	// being created. prof backs the Profile ProcessProfiled hands out.
	missBuf []tuple.Tuple
	seed    [1]tuple.Tuple
	segBuf  [2][]tuple.Tuple
	segAll  []tuple.Tuple
	segVals []tuple.Tuple
	prof    Profile

	// ProcessRun scratch, reused across runs: bounds[pos][j] is the end
	// offset of update j's sub-batch within arrivals[pos], charges[pos][j]
	// records the meter delta of update j's sub-batch at join-step position
	// pos, and dupOf / dupSlots back duplicate detection (see dupFirst).
	bounds   [][]int32
	charges  [][]cost.Units
	dupOf    []int32
	dupSlots []dupSlot
	dupEpoch uint32

	// sharerIDs[r] is this executor's sharer id on relation r's store when
	// that store is cross-query shared (−1 otherwise); sharedCount is the
	// number of shared relations. preApplied marks the in-flight update as
	// already physically applied by another sharer, so operators that read
	// the updated relation's own store (Instance.multOf) must not re-adjust
	// for the pending application.
	sharerIDs   []int
	sharedCount int
	preApplied  bool
}

// NewExec builds an executor for q with the given pipeline ordering.
func NewExec(q *query.Query, ord planner.Ordering, meter *cost.Meter, opts Options) (*Exec, error) {
	if err := ord.Validate(q.N()); err != nil {
		return nil, err
	}
	e := &Exec{
		q:        q,
		meter:    meter,
		ord:      ord.Clone(),
		scanOnly: make(map[tuple.Attr]bool),
	}
	for _, a := range opts.ScanOnly {
		e.scanOnly[a] = true
	}
	e.stores = make([]*relation.Store, q.N())
	e.sharerIDs = make([]int, q.N())
	for i := 0; i < q.N(); i++ {
		e.sharerIDs[i] = -1
		if opts.StoreProvider != nil {
			if st := opts.StoreProvider(i, q.Schema(i), meter, IndexSignature(q, ord, e.scanOnly, i)); st != nil {
				e.stores[i] = st
				e.sharerIDs[i] = st.Share()
				e.sharedCount++
				continue
			}
		}
		e.stores[i] = relation.NewStore(i, q.Schema(i), meter)
	}
	e.buildPipelines()
	e.refreshBatchable()
	return e, nil
}

// Close is a no-op, kept for API stability: an executor holds nothing but
// memory.
func (e *Exec) Close() {}

// IndexSignature computes, without building anything, the canonical signature
// of the hash indexes pipeline compilation will create on relation rel's
// store under the given ordering — the per-step index of buildStep, collected
// across every pipeline position that joins rel. Equality of signatures is
// the precondition for cross-query store sharing: a store's insert/delete
// tariff charges one HashInsert per index, so sharers with differing index
// needs would observe different charges than their isolated baselines.
func IndexSignature(q *query.Query, ord planner.Ordering, scanOnly map[tuple.Attr]bool, rel int) string {
	seen := map[string]bool{}
	var ids []string
	for i := 0; i < q.N(); i++ {
		prefix := []int{i}
		for _, r := range ord[i] {
			if r != rel {
				prefix = append(prefix, r)
				continue
			}
			classes := q.SharedClasses(prefix, []int{r})
			useIndex := len(classes) > 0
			var attrNames []string
			for _, c := range classes {
				for _, name := range q.ClassAttrsOf(r, c) {
					attrNames = append(attrNames, name)
					if scanOnly[tuple.Attr{Rel: r, Name: name}] {
						useIndex = false
					}
				}
			}
			if useIndex {
				if id := relation.IndexNameOf(attrNames); !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			prefix = append(prefix, r)
		}
	}
	sort.Strings(ids)
	return strings.Join(ids, ";")
}

// SharedStores returns the number of relations whose window store is
// cross-query shared.
func (e *Exec) SharedStores() int { return e.sharedCount }

// ReleaseSharedStores detaches this executor from every shared store. The
// stores (and their contents) survive for the remaining sharers. Idempotent.
func (e *Exec) ReleaseSharedStores() {
	for r, id := range e.sharerIDs {
		if id >= 0 {
			e.stores[r].Unshare(id)
			e.sharerIDs[r] = -1
		}
	}
	e.sharedCount = 0
}

// beginSharedPass prepares a pass over shared stores: rebinds each shared
// store's meter to this executor (sharers charge their own tariffs against
// the common structure), verifies the lockstep contract — every store except
// the updated relation's must be fully consumed by this sharer, the updated
// relation's at most one ahead — and records whether the in-flight update
// was already applied by a peer.
func (e *Exec) beginSharedPass(u stream.Update) {
	e.preApplied = false
	for r, id := range e.sharerIDs {
		if id < 0 {
			continue
		}
		st := e.stores[r]
		st.SetMeter(e.meter)
		lag := st.SharedLag(id)
		if r == u.Rel {
			if lag > 1 {
				panic(fmt.Sprintf("join: shared store %v fed out of order (lag %d); sharers must process each update before any processes the next (drive shared streams through Server.Append)", st, lag))
			}
			e.preApplied = lag == 1
		} else if lag != 0 {
			panic(fmt.Sprintf("join: shared store %v has %d unconsumed updates at the start of a pass over R%d; sharers must process each update before any processes the next (drive shared streams through Server.Append)", st, lag, u.Rel+1))
		}
	}
}

func (e *Exec) buildPipelines() {
	e.pipes = make([]*pipeline, e.q.N())
	for i := 0; i < e.q.N(); i++ {
		e.pipes[i] = buildPipeline(e.q, i, e.ord[i], e.stores, e.scanOnly)
	}
}

// Store returns relation rel's windowed store.
func (e *Exec) Store(rel int) *relation.Store { return e.stores[rel] }

// SetStoreFilters toggles the index fingerprint filters of every store.
// Results and meter charges are unaffected; only wall-clock time moves.
func (e *Exec) SetStoreFilters(on bool) {
	for _, s := range e.stores {
		s.SetFiltersEnabled(on)
	}
}

// StoreFilterBytes sums the resident filter footprint across stores.
func (e *Exec) StoreFilterBytes() int {
	n := 0
	for _, s := range e.stores {
		n += s.FilterBytes()
	}
	return n
}

// StoreFilterStats sums the filtered-probe counters across stores.
func (e *Exec) StoreFilterStats() relation.FilterStats {
	var agg relation.FilterStats
	for _, s := range e.stores {
		fs := s.FilterStats()
		agg.Probes += fs.Probes
		agg.Misses += fs.Misses
		agg.ShortCircuits += fs.ShortCircuits
		agg.FalsePositives += fs.FalsePositives
	}
	return agg
}

// Ordering returns a copy of the current pipeline ordering.
func (e *Exec) Ordering() planner.Ordering { return e.ord.Clone() }

// Tap registers an observer at (pipeline, pos); pos ranges 0..n−1 where
// n−1 is the output position. It returns an id for RemoveTap.
func (e *Exec) Tap(pipe, pos int, f func(batch []tuple.Tuple, op stream.Op)) int {
	e.nextTap++
	id := e.nextTap
	p := e.pipes[pipe]
	p.taps[pos] = append(p.taps[pos], tapEntry{id: id, f: f})
	return id
}

// RemoveTap unregisters a tap by id. The position's tap slice is compacted
// in place, keeping its capacity for the next Tap; taps are never removed
// from inside a tap callback, so no iteration sees the shift.
func (e *Exec) RemoveTap(id int) {
	for _, p := range e.pipes {
		for pos := range p.taps {
			for i, t := range p.taps[pos] {
				if t.id == id {
					p.taps[pos] = slices.Delete(p.taps[pos], i, i+1)
					return
				}
			}
		}
	}
}

// Process runs one update through its pipeline (join computation plus the
// relation-store update) with caches active, and returns the result.
func (e *Exec) Process(u stream.Update) Result {
	if e.sharedCount > 0 {
		e.beginSharedPass(u)
	}
	sw := cost.NewStopwatch(e.meter)
	outputs := e.run(u, false, nil)
	e.applyStoreUpdate(u)
	return Result{Outputs: outputs, Units: sw.Elapsed()}
}

// ProcessProfiled runs one update with this pipeline's caches bypassed
// (Appendix A: a profiled tuple's processing never uses caches in its own
// pipeline, so δ_j and τ_j reflect cache-free operator behaviour) and
// returns per-operator measurements. Maintenance of caches hosted in other
// pipelines still runs — consistency is unconditional.
func (e *Exec) ProcessProfiled(u stream.Update) (Result, Profile) {
	if e.sharedCount > 0 {
		e.beginSharedPass(u)
	}
	sw := cost.NewStopwatch(e.meter)
	nsteps := len(e.pipes[u.Rel].steps)
	if cap(e.prof.StepInputs) <= nsteps {
		e.prof = Profile{StepInputs: make([]int, nsteps+1), StepUnits: make([]cost.Units, nsteps)}
	}
	prof := Profile{StepInputs: e.prof.StepInputs[:nsteps+1], StepUnits: e.prof.StepUnits[:nsteps]}
	clear(prof.StepUnits) // run writes every StepInputs entry, but only the steps that ran
	outputs := e.run(u, true, &prof)
	e.applyStoreUpdate(u)
	return Result{Outputs: outputs, Units: sw.Elapsed()}, prof
}

func (e *Exec) applyStoreUpdate(u stream.Update) {
	if id := e.sharerIDs[u.Rel]; id >= 0 {
		op := relation.SharedInsert
		if u.Op != stream.Insert {
			op = relation.SharedDelete
		}
		e.stores[u.Rel].ApplyShared(id, op, u.Tuple)
		return
	}
	if u.Op == stream.Insert {
		e.stores[u.Rel].Insert(u.Tuple)
	} else {
		e.stores[u.Rel].Delete(u.Tuple)
	}
}

// run executes the join computation of one update through pipeline u.Rel,
// position by position. arrivals[pos] accumulates the composite tuples
// reaching each position: step outputs land at pos+1, and cache hits jump
// straight to the position after their segment. Maintenance operators and
// taps at a position fire on the full batch arriving there, before any
// lookup — the planner guarantees no maintenance position ever falls
// strictly inside a used cache's segment, so bypasses never skip one.
func (e *Exec) run(u stream.Update, profiled bool, prof *Profile) int {
	p := e.pipes[u.Rel]
	nsteps := len(p.steps)
	if p.arrivals == nil {
		p.arrivals = make([][]tuple.Tuple, nsteps+1)
	}
	e.arena.reset()
	arrivals := p.arrivals
	for i := range arrivals {
		arrivals[i] = arrivals[i][:0]
	}
	arrivals[0] = append(arrivals[0], u.Tuple)
	outputs := 0
	for pos := 0; pos <= nsteps; pos++ {
		batch := arrivals[pos]
		if len(batch) > 0 {
			for _, m := range p.maint[pos] {
				m.apply(e, u.Rel, batch, u.Op)
			}
			for _, t := range p.taps[pos] {
				t.f(batch, u.Op)
			}
		}
		if pos == nsteps {
			outputs = len(batch)
			break
		}
		if prof != nil {
			prof.StepInputs[pos] = len(batch)
		}
		if len(batch) == 0 {
			continue
		}
		att := p.lookups[pos]
		if att != nil && !profiled {
			misses := e.applyLookup(p, att, batch, arrivals)
			if len(misses) > 0 {
				segOut := e.runMissSegment(p, att, misses, u.Op, false)
				arrivals[att.end+1] = append(arrivals[att.end+1], segOut...)
			}
			continue
		}
		sw := cost.NewStopwatch(e.meter)
		arrivals[pos+1] = p.steps[pos].run(batch, e.stores[p.steps[pos].rel], e.meter, &e.arena, arrivals[pos+1])
		if prof != nil {
			prof.StepUnits[pos] = sw.Elapsed()
		}
	}
	if prof != nil {
		prof.StepInputs[nsteps] = outputs
	}
	return outputs
}

// applyLookup probes the cache for each tuple of the batch. Hits emit their
// continuation tuples directly into arrivals[end+1]; misses are returned for
// regular segment processing (in missBuf, valid until the next lookup).
func (e *Exec) applyLookup(p *pipeline, att *attachment, batch []tuple.Tuple, arrivals [][]tuple.Tuple) []tuple.Tuple {
	misses := e.missBuf[:0]
	emit := func(r, s tuple.Tuple) {
		e.meter.Charge(cost.OutputTuple)
		out := e.arena.alloc(len(r) + len(att.permCols))
		copy(out, r)
		for i, c := range att.permCols {
			out[len(r)+i] = s[c]
		}
		arrivals[att.end+1] = append(arrivals[att.end+1], out)
	}
	for _, r := range batch {
		e.meter.ChargeN(cost.KeyExtract, len(att.keyCols))
		e.keyBuf = tuple.AppendKey(e.keyBuf[:0], r, att.keyCols)
		if att.inst.counted() {
			tuples, mults, hit := att.inst.store.ProbeCountedBytes(e.keyBuf)
			if !hit {
				misses = append(misses, r)
				continue
			}
			for i, s := range tuples {
				for k := 0; k < mults[i]; k++ {
					emit(r, s)
				}
			}
			continue
		}
		v, hit := att.inst.store.ProbeBytes(e.keyBuf)
		if !hit {
			misses = append(misses, r)
			continue
		}
		for _, s := range v {
			emit(r, s)
		}
	}
	e.missBuf = misses[:0]
	return misses
}

// runMissSegment processes each miss tuple through the cached segment's
// join operators and installs the computed values in the cache: for every
// probed key, the complete (possibly empty) multiset of joining segment
// tuples, taken from exactly one probing tuple — the CacheUpdate create of
// Section 3.2. Values are multisets: a window holding duplicate rows yields
// duplicate segment tuples, and each must be cached so a later delete
// removes exactly one. Taps inside the segment still fire so shadow
// profilers observe whatever flows (the engine demotes enclosing caches
// when a subset cache needs the full stream, Section 4.5(b)).
//
// useMemo engages the step probe memos; only the batch path (ProcessRun)
// passes true, where the memoized replay is charge-identical and the stores
// it probes are guaranteed unchanged for the duration of the run.
func (e *Exec) runMissSegment(p *pipeline, att *attachment, misses []tuple.Tuple, op stream.Op, useMemo bool) []tuple.Tuple {
	if len(misses) > 1 {
		e.dupReset(len(misses))
	}
	all := e.segAll[:0]
	for j, r := range misses {
		e.seed[0] = r
		batch := e.seed[:]
		for pos := att.start; pos <= att.end; pos++ {
			if pos > att.start && len(batch) > 0 {
				for _, t := range p.taps[pos] {
					t.f(batch, op)
				}
			}
			st := p.steps[pos]
			out := &e.segBuf[(pos-att.start)&1]
			if useMemo {
				*out = st.runMemo(batch, e.stores[st.rel], e.meter, &e.arena, (*out)[:0])
			} else {
				*out = st.run(batch, e.stores[st.rel], e.meter, &e.arena, (*out)[:0])
			}
			batch = *out
		}
		all = append(all, batch...)
		// One create per probed key: a miss whose key an earlier miss of
		// this call already carried is skipped, whatever became of that
		// entry since.
		if len(misses) > 1 && e.dupFirst(misses, j, att.keyCols) != int32(j) {
			continue
		}
		vals := e.segVals[:0]
		for _, out := range batch {
			vals = append(vals, e.arena.project(out, att.segCols))
		}
		e.segVals = vals[:0]
		if !att.inst.counted() {
			e.keyBuf = tuple.AppendKey(e.keyBuf[:0], r, att.keyCols)
			att.inst.store.CreateBytes(e.keyBuf, vals)
			continue
		}
		u := tuple.KeyOf(r, att.keyCols)
		// GC cache: collapse to distinct tuples with their multiplicities,
		// keep only Y-supported ones, and record exact total support
		// (multiplicity × per-instance Y combinations).
		var tuples []tuple.Tuple
		var mults, supports []int
	collapse:
		for _, t := range vals {
			for i, d := range tuples {
				if d.Equal(t) {
					mults[i]++
					continue collapse
				}
			}
			tuples = append(tuples, t)
			mults = append(mults, 1)
			supports = append(supports, att.inst.countY(e, t))
		}
		kept := tuples[:0]
		var km, ks []int
		for i, t := range tuples {
			if supports[i] > 0 {
				kept = append(kept, t)
				km = append(km, mults[i])
				ks = append(ks, mults[i]*supports[i])
			}
		}
		att.inst.store.CreateCounted(u, kept, km, ks)
	}
	e.segAll = all[:0]
	return all
}
