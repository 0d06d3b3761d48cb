package join

import (
	"math/rand"
	"testing"

	"acache/internal/cost"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/tuple"
)

// compositeKeyQuery joins R1(A,B) ⋈ R2(A,B) ⋈ R3(A): R1–R2 join on BOTH A
// and B (two equivalence classes crossing the same pair), R3 on A only.
// Cache keys over the {R1,R2} segment therefore pack two class values.
func compositeKeyQuery(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A", "B"),
			tuple.RelationSchema(1, "A", "B"),
			tuple.RelationSchema(2, "A"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 1, Name: "B"}},
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 2, Name: "A"}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCompositeKeyJoinMatchesOracle(t *testing.T) {
	q := compositeKeyQuery(t)
	meter := &cost.Meter{}
	e, err := NewExec(q, planner.Ordering{{1, 2}, {0, 2}, {0, 1}}, meter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 700, 3), nil)
}

func TestCompositeKeyCacheConsistent(t *testing.T) {
	q := compositeKeyQuery(t)
	ord := planner.Ordering{{1, 2}, {0, 2}, {0, 1}}
	cands := planner.Candidates(q, ord)
	// {R1,R2}@ΔR3 is prefix-invariant; its key must be the A class only
	// (the class shared between prefix {R3} and the segment); the B class
	// is internal to the segment.
	var spec *planner.Spec
	for _, c := range cands {
		if c.Pipeline == 2 && equalInts(c.Segment, []int{0, 1}) {
			spec = c
		}
	}
	if spec == nil {
		t.Fatalf("{R1,R2}@ΔR3 missing: %v", cands)
	}
	if len(spec.KeyClasses) != 1 {
		t.Fatalf("key classes = %v, want just A's class", spec.KeyClasses)
	}
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	inst := NewInstance(q, spec, 64, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 700, 3), func(o *testOracle, seq int) {
		checkConsistency(t, q, o, inst, seq)
	})
}

// TestTwoClassCrossingKey builds a four-way query where a cache key packs
// two classes: R0(A,B) bridges to a segment {R1,R2} via A AND B separately.
func TestTwoClassCrossingKey(t *testing.T) {
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A", "B"),
			tuple.RelationSchema(1, "A"),
			tuple.RelationSchema(2, "B"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// ΔR0: R1,R2; ΔR1: R2,R0? R1 and R2 share no class → their mutual join
	// is a cross product; keep them adjacent so {R1,R2} is a candidate in
	// ΔR0's pipeline: ΔR1 must start with R2 and vice versa.
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}}
	cands := planner.Candidates(q, ord)
	var spec *planner.Spec
	for _, c := range cands {
		if c.Pipeline == 0 && equalInts(c.Segment, []int{1, 2}) {
			spec = c
		}
	}
	if spec == nil {
		t.Fatalf("{R1,R2}@ΔR0 missing: %v", cands)
	}
	if len(spec.KeyClasses) != 2 {
		t.Fatalf("key classes = %v, want A and B", spec.KeyClasses)
	}
	meter := &cost.Meter{}
	e, _ := NewExec(q, ord, meter, Options{})
	inst := NewInstance(q, spec, 64, -1, meter)
	if err := e.AttachCache(spec, inst); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	runAgainstOracle(t, q, e, randomUpdates(rng, q, 600, 3), func(o *testOracle, seq int) {
		checkConsistency(t, q, o, inst, seq)
	})
	// An empty entry accounts exactly its packed key.
	c := inst.Cache()
	c.Clear()
	c.Create(tuple.KeyOfValues([]tuple.Value{1, 2}), nil)
	if c.UsedBytes() != 16 {
		t.Fatalf("packed key bytes = %d, want 16 (two classes)", c.UsedBytes())
	}
}
