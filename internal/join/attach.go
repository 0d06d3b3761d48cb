package join

import (
	"fmt"
	"sort"

	"acache/internal/cache"
	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Instance is one physical cache, possibly shared by placements in several
// pipelines (Definition 4.1: shared caches have the same segment relation
// set and the same key, so their maintenance cost is paid once).
type Instance struct {
	store      *cache.Cache
	segment    []int // sorted relation set X
	keyClasses []int
	gc         bool
	selfMaint  bool  // GC fallback: exact mini-join maintenance on segment updates
	y          []int // sorted reduction set Y for GC caches; nil otherwise

	segSchema *tuple.Schema // canonical: segment relations in sorted order
	segParts  [][]int       // per segment relation: its columns in segSchema

	attachCount int
	maintHooks  []maintHookRef
	ySteps      []*step // mini-pipeline joining Y onto the canonical segment schema
}

type maintHookRef struct {
	pipeline, pos int
	op            *maintOp
}

// NewInstance creates a physical cache for the given candidate spec with
// the paper's direct-mapped replacement. nbuckets is chosen by the caller
// from the expected number of entries (Section 3.3); budget < 0 means
// unlimited memory.
func NewInstance(q *query.Query, spec *planner.Spec, nbuckets, budget int, meter *cost.Meter) *Instance {
	seg := append([]int(nil), spec.Segment...)
	sort.Ints(seg)
	var cols []tuple.Attr
	for _, r := range seg {
		cols = append(cols, q.Schema(r).Cols()...)
	}
	inst := &Instance{
		store:      cache.New(nbuckets, 8*len(spec.KeyClasses), budget, meter),
		segment:    seg,
		keyClasses: append([]int(nil), spec.KeyClasses...),
		gc:         spec.GC,
		selfMaint:  spec.SelfMaint,
		y:          append([]int(nil), spec.Y...),
		segSchema:  tuple.NewSchema(cols...),
	}
	off := 0
	for _, r := range seg {
		w := q.Schema(r).Len()
		part := make([]int, w)
		for i := range part {
			part[i] = off + i
		}
		inst.segParts = append(inst.segParts, part)
		off += w
	}
	return inst
}

// multOf returns X-tuple x's segment-join multiplicity as it will stand
// once the in-flight update (to relation updRel with operation op) is
// applied: the product of each segment relation's value count for x's
// projection, adjusted by ±1 for updRel because relation stores are updated
// after join processing completes. When updRel's store is cross-query shared
// and a peer executor already applied the update physically (e.preApplied),
// CountOf already reflects it and the adjustment must not be repeated.
func (inst *Instance) multOf(e *Exec, x tuple.Tuple, updRel int, op stream.Op) int {
	m := 1
	for i, r := range inst.segment {
		c := e.stores[r].CountOf(extract(x, inst.segParts[i]))
		if r == updRel && !e.preApplied {
			if op == stream.Insert {
				c++
			} else {
				c--
			}
		}
		if c <= 0 {
			return 0
		}
		m *= c
	}
	return m
}

// Cache exposes the underlying associative store (stats, budget control).
func (inst *Instance) Cache() *cache.Cache { return inst.store }

// counted reports whether entries carry (mult, support) counts — only true
// for incrementally maintained GC caches.
func (inst *Instance) counted() bool { return inst.gc && !inst.selfMaint }

// attachment is one CacheLookup/CacheUpdate placement in a using pipeline.
type attachment struct {
	inst       *Instance
	start, end int
	keyCols    []int // representative columns of keyClasses in schemas[start]
	segCols    []int // canonical-segment extraction columns in schemas[end+1]
	permCols   []int // canonical index for each pipeline-order segment column
}

// maintOp is a CacheUpdate maintenance operator: it applies the segment-join
// (or X∪Y-join, for GC caches) deltas flowing through a pipeline position to
// the instance (Section 3.2's U_l operators). In self-maintenance mode it
// computes the segment-join delta itself by joining the raw update with the
// other segment relations — paying explicitly for what the prefix invariant
// would otherwise provide free — and applies the exact result.
type maintOp struct {
	inst    *Instance
	keyCols []int // representative columns of keyClasses in the position's schema
	segCols []int // canonical-segment extraction columns
	// smSteps, when non-nil, marks self-maintenance mode: the
	// mini-pipeline joining the other segment relations onto the updated
	// relation's tuple; keyCols and segCols then refer to the
	// mini-pipeline's output schema.
	smSteps []*step
	// segBuf is the delete-path scratch for the extracted segment tuple
	// (deletes only compare, so no heap copy is needed). Executors are
	// single-goroutine, so per-operator reuse is safe.
	segBuf tuple.Tuple
}

// apply feeds one update's delta batch (at this operator's pipeline
// position) into the cache. updRel is the relation the in-flight update
// targets — the relation of the pipeline hosting this operator.
func (m *maintOp) apply(e *Exec, updRel int, batch []tuple.Tuple, op stream.Op) {
	if m.smSteps != nil {
		// Self-maintenance: batch is the raw update tuple; the mini-join
		// computes the exact segment-join delta, which then flows through
		// the ordinary plain-cache maintenance below.
		for _, st := range m.smSteps {
			if len(batch) == 0 {
				return
			}
			batch = st.run(batch, e.stores[st.rel], e.meter, &e.arena, nil)
		}
	}
	if !m.inst.counted() {
		for _, t := range batch {
			e.meter.ChargeN(cost.KeyExtract, len(m.keyCols))
			e.keyBuf = tuple.AppendKey(e.keyBuf[:0], t, m.keyCols)
			if op == stream.Insert {
				m.inst.store.InsertColsBytes(e.keyBuf, t, m.segCols)
			} else {
				m.segBuf = extractInto(m.segBuf[:0], t, m.segCols)
				m.inst.store.DeleteBytes(e.keyBuf, m.segBuf)
			}
		}
		return
	}
	// GC cache: one delta composite = one (X-instance, Y-combination)
	// support unit. Group by (key, distinct X-tuple) and apply each group's
	// support delta in one call.
	type groupKey struct {
		u tuple.Key
		t tuple.Key
	}
	counts := make(map[groupKey]int)
	reps := make(map[groupKey]struct {
		u tuple.Key
		t tuple.Tuple
	})
	var order []groupKey
	for _, t := range batch {
		e.meter.ChargeN(cost.KeyExtract, len(m.keyCols))
		u := tuple.KeyOf(t, m.keyCols)
		seg := extract(t, m.segCols)
		gk := groupKey{u: u, t: tuple.Encode(seg)}
		if _, ok := reps[gk]; !ok {
			reps[gk] = struct {
				u tuple.Key
				t tuple.Tuple
			}{u, seg}
			order = append(order, gk)
		}
		counts[gk]++
	}
	for _, gk := range order {
		r := reps[gk]
		n := counts[gk]
		if op == stream.Delete {
			n = -n
		}
		m.inst.store.ApplyCountedDelta(r.u, r.t, n, func() int {
			return m.inst.multOf(e, r.t, updRel, op)
		})
	}
}

func extract(t tuple.Tuple, cols []int) tuple.Tuple {
	out := make(tuple.Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// extractInto is extract into a reusable scratch buffer, for compare-only
// uses that must not allocate.
func extractInto(dst tuple.Tuple, t tuple.Tuple, cols []int) tuple.Tuple {
	for _, c := range cols {
		dst = append(dst, t[c])
	}
	return dst
}

// segExtractCols computes, for a composite schema s containing all segment
// relations, the columns that produce the canonical segment tuple.
func segExtractCols(s *tuple.Schema, canonical *tuple.Schema) []int {
	cols := make([]int, canonical.Len())
	for i := 0; i < canonical.Len(); i++ {
		cols[i] = s.MustColOf(canonical.Col(i))
	}
	return cols
}

// AttachCache splices the instance into pipeline spec.Pipeline at positions
// spec.Start..spec.End and, on the instance's first attachment, installs its
// maintenance operators in the segment (and, for GC caches, reduction)
// relations' pipelines. The spec must describe the same cache the instance
// was built for, and must not overlap an existing attachment in its pipeline.
func (e *Exec) AttachCache(spec *planner.Spec, inst *Instance) error {
	p := e.pipes[spec.Pipeline]
	if spec.Start < 0 || spec.End >= len(p.steps) || spec.Start > spec.End {
		return fmt.Errorf("join: attachment span [%d,%d] out of range", spec.Start, spec.End)
	}
	seg := make([]int, 0, spec.End-spec.Start+1)
	for pos := spec.Start; pos <= spec.End; pos++ {
		seg = append(seg, p.steps[pos].rel)
	}
	sort.Ints(seg)
	if !equalInts(seg, inst.segment) {
		return fmt.Errorf("join: instance segment %v does not match pipeline span %v", inst.segment, seg)
	}
	for pos := spec.Start; pos <= spec.End; pos++ {
		for q := 0; q < len(p.steps); q++ {
			if a := p.lookups[q]; a != nil && pos >= q && pos <= a.end {
				return fmt.Errorf("join: attachment overlaps existing cache at [%d,%d] in pipeline %d", q, a.end, spec.Pipeline)
			}
			if a := p.suspended[q]; a != nil && pos >= q && pos <= a.end {
				return fmt.Errorf("join: attachment overlaps suspended cache at [%d,%d] in pipeline %d", q, a.end, spec.Pipeline)
			}
		}
	}
	// Hit bypasses jump from Start to End+1: a maintenance operator of
	// another cache strictly inside the span would miss its deltas. For
	// prefix-closed segments this cannot arise (nested-set argument in
	// exec.go), but self-maintained segments are not prefix-closed, so the
	// executor enforces it dynamically; the engine skips placements the
	// executor rejects.
	for pos := spec.Start + 1; pos <= spec.End; pos++ {
		if len(p.maint[pos]) > 0 {
			return fmt.Errorf("join: attachment [%d,%d] would bypass a maintenance operator at position %d of pipeline %d",
				spec.Start, spec.End, pos, spec.Pipeline)
		}
	}
	att := &attachment{
		inst:    inst,
		start:   spec.Start,
		end:     spec.End,
		keyCols: e.q.RepresentativeCols(p.schemas[spec.Start], inst.keyClasses),
		segCols: segExtractCols(p.schemas[spec.End+1], inst.segSchema),
	}
	// permCols: the using pipeline's segment-portion columns (those appended
	// by steps Start..End) drawn from the canonical value tuple.
	prefixLen := p.schemas[spec.Start].Len()
	segPart := p.schemas[spec.End+1]
	att.permCols = make([]int, segPart.Len()-prefixLen)
	for i := range att.permCols {
		att.permCols[i] = inst.segSchema.MustColOf(segPart.Col(prefixLen + i))
	}
	p.lookups[spec.Start] = att

	if inst.attachCount == 0 {
		if err := e.installMaintenance(inst); err != nil {
			p.lookups[spec.Start] = nil
			e.removeMaintenance(inst) // undo any partially installed hooks
			return err
		}
	}
	inst.attachCount++
	e.refreshBatchable()
	return nil
}

// DetachCache removes the attachment at the given pipeline position span,
// suspended or active. When the instance's last attachment goes away its
// maintenance operators are removed too; the cache contents are cleared
// because without maintenance they would go stale.
func (e *Exec) DetachCache(spec *planner.Spec) {
	p := e.pipes[spec.Pipeline]
	att := p.lookups[spec.Start]
	if att != nil && att.end == spec.End {
		p.lookups[spec.Start] = nil
	} else {
		att = p.suspended[spec.Start]
		if att == nil || att.end != spec.End {
			return
		}
		delete(p.suspended, spec.Start)
	}
	inst := att.inst
	inst.attachCount--
	if inst.attachCount == 0 {
		e.removeMaintenance(inst)
		inst.store.Clear()
	}
	e.refreshBatchable()
}

// SuspendLookup removes the CacheLookup at spec's position while keeping
// the instance and its maintenance operators alive — the cache stays
// consistent and can resume warm. It reports whether an active attachment
// was found.
func (e *Exec) SuspendLookup(spec *planner.Spec) bool {
	p := e.pipes[spec.Pipeline]
	att := p.lookups[spec.Start]
	if att == nil || att.end != spec.End {
		return false
	}
	p.lookups[spec.Start] = nil
	p.suspended[spec.Start] = att
	e.refreshBatchable()
	return true
}

// ResumeLookup re-installs a suspended CacheLookup. It reports whether a
// matching suspended attachment was found.
func (e *Exec) ResumeLookup(spec *planner.Spec) bool {
	p := e.pipes[spec.Pipeline]
	att := p.suspended[spec.Start]
	if att == nil || att.end != spec.End {
		return false
	}
	delete(p.suspended, spec.Start)
	p.lookups[spec.Start] = att
	e.refreshBatchable()
	return true
}

// installMaintenance adds the CacheUpdate operators U_l (Section 3.2): for a
// prefix cache, in each segment relation's pipeline at position |X|−1; for a
// GC cache, in each X∪Y relation's pipeline at position |X∪Y|−1. It also
// compiles the Y mini-pipeline used to compute Y-support counts on misses.
// Self-maintained caches instead get an operator at position 0 of every
// segment relation's pipeline that computes the segment-join delta directly.
func (e *Exec) installMaintenance(inst *Instance) error {
	if inst.selfMaint {
		for _, l := range inst.segment {
			p := e.pipes[l]
			cur := e.q.Schema(l)
			prefix := []int{l}
			var steps []*step
			for _, r := range inst.segment {
				if r == l {
					continue
				}
				st := buildStep(e.q, cur, prefix, r, e.stores[r], e.scanOnly)
				steps = append(steps, st)
				cur = st.out
				prefix = append(prefix, r)
			}
			op := &maintOp{
				inst:    inst,
				keyCols: e.q.RepresentativeCols(cur, inst.keyClasses),
				segCols: segExtractCols(cur, inst.segSchema),
				smSteps: steps,
			}
			p.maint[0] = append(p.maint[0], op)
			inst.maintHooks = append(inst.maintHooks, maintHookRef{pipeline: l, pos: 0, op: op})
		}
		return nil
	}
	scope := inst.segment
	if inst.gc {
		scope = append(append([]int(nil), inst.segment...), inst.y...)
		sort.Ints(scope)
	}
	pos := len(scope) - 1
	// A maintenance operator strictly inside an existing attachment's span
	// would be bypassed by that cache's hits (see AttachCache); refuse.
	for _, l := range scope {
		p := e.pipes[l]
		check := func(a *attachment, start int) error {
			if a != nil && pos > start && pos <= a.end {
				return fmt.Errorf("join: maintenance position %d of pipeline %d lies inside attachment [%d,%d]",
					pos, l, start, a.end)
			}
			return nil
		}
		for s := 0; s < len(p.lookups); s++ {
			if err := check(p.lookups[s], s); err != nil {
				return err
			}
		}
		for s, a := range p.suspended {
			if err := check(a, s); err != nil {
				return err
			}
		}
	}
	for _, l := range scope {
		p := e.pipes[l]
		op := &maintOp{
			inst:    inst,
			keyCols: e.q.RepresentativeCols(p.schemas[pos], inst.keyClasses),
			segCols: segExtractCols(p.schemas[pos], inst.segSchema),
		}
		p.maint[pos] = append(p.maint[pos], op)
		inst.maintHooks = append(inst.maintHooks, maintHookRef{pipeline: l, pos: pos, op: op})
	}
	if inst.gc && inst.ySteps == nil {
		cur := inst.segSchema
		prefix := append([]int(nil), inst.segment...)
		for _, r := range inst.y {
			st := buildStep(e.q, cur, prefix, r, e.stores[r], e.scanOnly)
			inst.ySteps = append(inst.ySteps, st)
			cur = st.out
			prefix = append(prefix, r)
		}
	}
	return nil
}

func (e *Exec) removeMaintenance(inst *Instance) {
	for _, h := range inst.maintHooks {
		ops := e.pipes[h.pipeline].maint[h.pos]
		for i, op := range ops {
			if op == h.op {
				e.pipes[h.pipeline].maint[h.pos] = append(ops[:i:i], ops[i+1:]...)
				break
			}
		}
	}
	inst.maintHooks = nil
}

// countY returns the number of Y-join combinations supporting the canonical
// segment tuple t: the multiplicity used when a GC cache entry is created on
// a miss. All probe work is charged to the executor meter as part of miss
// population.
func (inst *Instance) countY(e *Exec, t tuple.Tuple) int {
	batch := []tuple.Tuple{t}
	for _, st := range inst.ySteps {
		batch = st.run(batch, e.stores[st.rel], e.meter, &e.arena, nil)
		if len(batch) == 0 {
			return 0
		}
	}
	return len(batch)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
