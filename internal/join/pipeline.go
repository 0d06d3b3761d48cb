// Package join implements the MJoin executor of Section 3: one pipeline per
// update stream, join operators that probe hash indexes (or fall back to
// nested-loop scans), and the CacheLookup / CacheUpdate operators that splice
// caches into pipelines (Section 3.2).
//
// Updates are processed strictly in their global order, each to completion,
// on a single goroutine; all work is charged to a shared cost meter.
package join

import (
	"fmt"

	"acache/internal/cost"
	"acache/internal/query"
	"acache/internal/relation"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// step is one join operator ⋈_ij: it joins composite tuples arriving at its
// position with relation rel, enforcing equality on every attribute
// equivalence class shared between rel and the pipeline prefix.
type step struct {
	rel     int
	classes []int // shared classes enforced by this operator

	// Index path: probeFromCols[c] is the input-schema column whose value
	// fills the c-th column of the index key (index columns are the rel's
	// class attributes sorted by name). probeVals is the probe-key scratch,
	// sized at compile time; pipelines are single-goroutine so reuse across
	// run calls is safe (ProbeEach never retains the slice). idx is the
	// store's index, created at compile time; a store never drops one.
	idx           *relation.HashIndex
	probeFromCols []int
	probeVals     []tuple.Value

	// Scan path (no index or no shared classes): for each check,
	// input[inCol] must equal relTuple[relCol].
	scanChecks [][2]int

	// thetas are the residual non-equality predicates between rel and the
	// prefix, applied to every match: input[inCol] op relTuple[relCol].
	thetas []thetaCheck

	// memo caches index probe chains across the updates of one batch run
	// (ProcessRun). Only runMemo uses it: the stores a run probes stay
	// unchanged for its whole length, which is what lets a recorded chain
	// pay for itself. Validity is checked against the store's mutation
	// counter on every probe, so the memo can simply persist here across
	// runs. memoable gates it to steps whose probe key is a strict
	// projection of the input tuple — when the key covers every input
	// column, distinct inputs never share a key, so the memo would pay its
	// bookkeeping without ever hitting (duplicate inputs are already
	// replayed wholesale by ProcessRun's runDups).
	memo     relation.ProbeMemo
	memoable bool

	// keyFromRoot marks index steps whose probe-key columns all come from the
	// pipeline root's schema (columns 0..rootWidth−1 of every composite). A
	// composite's key then equals its root tuple's key, so in a batch whose
	// composites all extend one root tuple the key is constant and run
	// probes the index once for the whole batch (runGrouped).
	keyFromRoot bool

	in, out *tuple.Schema
}

type thetaCheck struct {
	inCol  int
	op     query.CmpOp
	relCol int
}

func (st *step) passesThetas(in, m tuple.Tuple, meter *cost.Meter) bool {
	for _, th := range st.thetas {
		meter.Charge(cost.CompareStep)
		if !th.op.Eval(in[th.inCol], m[th.relCol]) {
			return false
		}
	}
	return true
}

// tapFunc observes the batch of composite tuples arriving at a pipeline
// position during the processing of one update. Taps are the profiler's
// hook: per-operator tuple counts and the shadow CacheLookup Bloom probes of
// Appendix A are both taps.
type tapFunc func(batch []tuple.Tuple, op stream.Op)

type tapEntry struct {
	id int
	f  tapFunc
}

// pipeline is ΔR_rel's compiled pipeline: n−1 join steps plus a virtual
// output position at index len(steps) where results (and maintenance
// operators for segments spanning all other relations) live.
type pipeline struct {
	rel     int
	order   []int
	steps   []*step
	schemas []*tuple.Schema // schemas[pos] = schema arriving at pos; len = len(steps)+1

	lookups []*attachment // by position; nil when no used cache starts here
	// suspended holds attachments whose CacheLookup is temporarily removed
	// while their instance (and its maintenance) stays alive — a used
	// cache moved to the profiled state so a subset candidate can observe
	// the full probe stream (Section 4.5(b)).
	suspended map[int]*attachment
	maint     [][]*maintOp // by position (0..len(steps))
	taps      [][]tapEntry // by position (0..len(steps))

	// arrivals is Exec.run's per-update scratch (len(steps)+1 batches),
	// reused across updates: only run touches it, engines are
	// single-goroutine, and nothing downstream retains the batch slices
	// (taps, maintenance, and profilers all copy what they keep).
	arrivals [][]tuple.Tuple

	// batchable reports whether ProcessRun may execute multi-update runs
	// through this pipeline; recomputed by refreshBatchable whenever the
	// attachment or maintenance configuration changes. See computeBatchable
	// for the exclusions.
	batchable bool
}

func buildPipeline(q *query.Query, rel int, order []int, stores []*relation.Store, scanOnly map[tuple.Attr]bool) *pipeline {
	p := &pipeline{rel: rel, order: append([]int(nil), order...)}
	cur := q.Schema(rel)
	p.schemas = append(p.schemas, cur)
	prefix := []int{rel}
	for _, r := range order {
		st := buildStep(q, cur, prefix, r, stores[r], scanOnly)
		p.steps = append(p.steps, st)
		cur = st.out
		p.schemas = append(p.schemas, cur)
		prefix = append(prefix, r)
	}
	n := len(p.steps) + 1
	p.lookups = make([]*attachment, n)
	p.suspended = make(map[int]*attachment)
	p.maint = make([][]*maintOp, n)
	p.taps = make([][]tapEntry, n)
	p.batchable = true
	return p
}

// buildStep compiles the join of the current prefix with relation r.
func buildStep(q *query.Query, in *tuple.Schema, prefix []int, r int, store *relation.Store, scanOnly map[tuple.Attr]bool) *step {
	classes := q.SharedClasses(prefix, []int{r})
	st := &step{
		rel:     r,
		classes: classes,
		in:      in,
		out:     in.Concat(q.Schema(r)),
	}
	// Residual theta predicates between the prefix and r become filters on
	// this operator's matches, oriented so the prefix side reads from the
	// input schema.
	relSchemaT := q.Schema(r)
	for _, th := range q.ThetasBetween(prefix, []int{r}) {
		left, op, right := th.Left, th.Op, th.Right
		if left.Rel == r {
			// Flip so the input-side attribute comes first.
			left, right = right, left
			switch op {
			case query.Lt:
				op = query.Gt
			case query.Le:
				op = query.Ge
			case query.Gt:
				op = query.Lt
			case query.Ge:
				op = query.Le
			}
		}
		st.thetas = append(st.thetas, thetaCheck{
			inCol:  in.MustColOf(left),
			op:     op,
			relCol: relSchemaT.MustColOf(right),
		})
	}
	// Collect r's attributes participating in the shared classes, and
	// whether any of them is marked index-free (Figure 10's dropped index).
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
		idx := store.CreateIndex(attrNames...)
		st.idx = idx
		// Align probe values with the index's sorted column order: index
		// col i holds r's attribute at schema column idx.Cols()[i]; its
		// probe value comes from the input's representative column of
		// that attribute's class.
		relSchema := q.Schema(r)
		st.probeFromCols = make([]int, 0, len(idx.Cols()))
		for _, relCol := range idx.Cols() {
			attr := relSchema.Col(relCol)
			cls, ok := q.ClassOf(attr)
			if !ok {
				panic(fmt.Sprintf("join: index attribute %v has no class", attr))
			}
			st.probeFromCols = append(st.probeFromCols, q.RepresentativeCols(in, []int{cls})[0])
		}
		st.probeVals = make([]tuple.Value, len(st.probeFromCols))
		st.memoable = len(st.probeFromCols) < in.Len()
		// keyFromRoot: every probe-key column's equivalence class has a member
		// in the root relation's schema. Earlier steps enforce class equality
		// within a composite, so such a column's value equals the root tuple's
		// — constant across a sub-batch of composites extending one root tuple.
		rootClasses := make(map[int]bool)
		for i := 0; i < q.Schema(prefix[0]).Len(); i++ {
			if cls, ok := q.ClassOf(q.Schema(prefix[0]).Col(i)); ok {
				rootClasses[cls] = true
			}
		}
		st.keyFromRoot = true
		for _, c := range st.probeFromCols {
			cls, ok := q.ClassOf(in.Col(c))
			if !ok || !rootClasses[cls] {
				st.keyFromRoot = false
				break
			}
		}
		return st
	}
	// Scan path: equality checks per (class, r-attribute) pair; with no
	// shared classes this is a pure cross join.
	relSchema := q.Schema(r)
	for _, c := range classes {
		inCol := q.RepresentativeCols(in, []int{c})[0]
		for _, name := range q.ClassAttrsOf(r, c) {
			relCol := relSchema.MustColOf(tuple.Attr{Rel: r, Name: name})
			st.scanChecks = append(st.scanChecks, [2]int{inCol, relCol})
		}
	}
	return st
}

// run joins the batch with the step's relation, appending the concatenated
// outputs to dst and charging all probe/scan/output work to the meter.
// Output tuples are carved from the arena, so they are valid only until the
// owning executor's next update; callers that keep them must copy.
//
// The batch must be single-rooted: every composite extends the same root
// tuple, as in every batch one update produces. A keyFromRoot step then
// probes its index once for the whole batch (runGrouped); other steps probe
// per composite (runEach). A caller whose batch mixes roots calls runEach.
func (st *step) run(batch []tuple.Tuple, store *relation.Store, meter *cost.Meter, arena *valueArena, dst []tuple.Tuple) []tuple.Tuple {
	if st.keyFromRoot && len(batch) > 1 {
		return st.runGrouped(batch, store, meter, arena, dst)
	}
	return st.runEach(batch, store, meter, arena, dst)
}

// runEach is the per-composite kernel: one index probe, or one scan, per
// composite of the batch.
func (st *step) runEach(batch []tuple.Tuple, store *relation.Store, meter *cost.Meter, arena *valueArena, dst []tuple.Tuple) []tuple.Tuple {
	out := dst
	if st.probeFromCols != nil {
		vals := st.probeVals
		for _, r := range batch {
			for i, c := range st.probeFromCols {
				vals[i] = r[c]
			}
			meter.ChargeN(cost.KeyExtract, len(vals))
			store.ProbeEach(st.idx, vals, func(m tuple.Tuple) {
				if !st.passesThetas(r, m, meter) {
					return
				}
				meter.Charge(cost.OutputTuple)
				out = append(out, arena.concat(r, m))
			})
		}
		return out
	}
	for _, r := range batch {
		store.Scan(func(m tuple.Tuple) bool {
			for _, chk := range st.scanChecks {
				if r[chk[0]] != m[chk[1]] {
					return true
				}
			}
			if !st.passesThetas(r, m, meter) {
				return true
			}
			meter.Charge(cost.OutputTuple)
			out = append(out, arena.concat(r, m))
			return true
		})
	}
	return out
}

// runGrouped is run for a batch whose probe key is constant (keyFromRoot, all
// composites extending one root tuple): the index is probed once into the
// arena's match scratch and the match list crossed with the batch. Charges
// equal runEach's — one KeyExtract per key column and one IndexProbe per
// composite (ProbeEach charges the real probe's, the rest are charged in
// bulk), and per-match theta and output charges for every composite — only
// their order within the call differs, and the meter is an integer
// accumulator read only between step calls. The matches reference the
// store's slab, which nothing mutates during a step call; the scratch is
// free again on return, since no step call runs inside another.
func (st *step) runGrouped(batch []tuple.Tuple, store *relation.Store, meter *cost.Meter, arena *valueArena, dst []tuple.Tuple) []tuple.Tuple {
	vals := st.probeVals
	for i, c := range st.probeFromCols {
		vals[i] = batch[0][c]
	}
	matches := arena.matches[:0]
	store.ProbeEach(st.idx, vals, func(m tuple.Tuple) {
		matches = append(matches, m)
	})
	arena.matches = matches[:0]
	meter.ChargeN(cost.KeyExtract, len(vals)*len(batch))
	meter.ChargeN(cost.IndexProbe, len(batch)-1)
	if len(matches) == 0 {
		return dst
	}
	out := dst
	for _, r := range batch {
		for _, m := range matches {
			if !st.passesThetas(r, m, meter) {
				continue
			}
			meter.Charge(cost.OutputTuple)
			out = append(out, arena.concat(r, m))
		}
	}
	return out
}

// runMemo is run with the step's probe memo engaged: equal probe keys within
// a batch run resolve the index chain once and replay it, with charges
// identical to run (the memo charges one IndexProbe per logical probe, and
// the replayed matches pass through the same theta and output charging here).
// Only the batch path (Exec.ProcessRun) calls it. keyFromRoot steps already
// probe once per sub-batch in run; the scan path has no memo, and steps whose
// probe key covers the whole input tuple never benefit (see memoable); all
// three fall through to run.
func (st *step) runMemo(batch []tuple.Tuple, store *relation.Store, meter *cost.Meter, arena *valueArena, dst []tuple.Tuple) []tuple.Tuple {
	if st.keyFromRoot || st.probeFromCols == nil || !st.memoable {
		return st.run(batch, store, meter, arena, dst)
	}
	out := dst
	vals := st.probeVals
	for _, r := range batch {
		for i, c := range st.probeFromCols {
			vals[i] = r[c]
		}
		meter.ChargeN(cost.KeyExtract, len(vals))
		store.ProbeEachMemo(st.idx, vals, &st.memo, func(m tuple.Tuple) {
			if !st.passesThetas(r, m, meter) {
				return
			}
			meter.Charge(cost.OutputTuple)
			out = append(out, arena.concat(r, m))
		})
	}
	return out
}
