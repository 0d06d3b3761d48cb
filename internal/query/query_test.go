package query

import (
	"strings"
	"testing"

	"acache/internal/tuple"
)

func chain3(t *testing.T) *Query {
	t.Helper()
	q, err := New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A"),
			tuple.RelationSchema(1, "A", "B"),
			tuple.RelationSchema(2, "B"),
		},
		[]Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 1, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
		},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

func clique4(t *testing.T) *Query {
	t.Helper()
	schemas := make([]*tuple.Schema, 4)
	var preds []Pred
	for i := range schemas {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			// Chain-written predicates; transitivity must merge them.
			preds = append(preds, Pred{
				Left:  tuple.Attr{Rel: i - 1, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	q, err := New(schemas, preds)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

func TestEquivalenceClasses(t *testing.T) {
	q := chain3(t)
	if q.NumClasses() != 2 {
		t.Fatalf("classes = %d, want 2 (A and B)", q.NumClasses())
	}
	ca, _ := q.ClassOf(tuple.Attr{Rel: 0, Name: "A"})
	cb, _ := q.ClassOf(tuple.Attr{Rel: 2, Name: "B"})
	if ca == cb {
		t.Fatal("A and B merged")
	}
	if c1, _ := q.ClassOf(tuple.Attr{Rel: 1, Name: "A"}); c1 != ca {
		t.Fatal("R1.A and R2.A must share a class")
	}
	if _, ok := q.ClassOf(tuple.Attr{Rel: 0, Name: "Z"}); ok {
		t.Fatal("unknown attribute has a class")
	}
}

func TestTransitiveClosureMergesChain(t *testing.T) {
	q := clique4(t)
	if q.NumClasses() != 1 {
		t.Fatalf("chain-written clique: classes = %d, want 1", q.NumClasses())
	}
	if len(q.ClassAttrs(0)) != 4 {
		t.Fatalf("class members = %v", q.ClassAttrs(0))
	}
}

func TestSharedClasses(t *testing.T) {
	q := chain3(t)
	// {R1} vs {R2,R3}: both A (via R2) and B (via R2,R3)? R1 only has A.
	got := q.SharedClasses([]int{0}, []int{1, 2})
	if len(got) != 1 {
		t.Fatalf("shared({R1},{R2,R3}) = %v, want just class A", got)
	}
	// {R1,R2} vs {R3}: class B crosses.
	got = q.SharedClasses([]int{0, 1}, []int{2})
	cb, _ := q.ClassOf(tuple.Attr{Rel: 2, Name: "B"})
	if len(got) != 1 || got[0] != cb {
		t.Fatalf("shared({R1,R2},{R3}) = %v, want [%d]", got, cb)
	}
	// Disjoint crossing: {R1} vs {R3} share nothing.
	if got = q.SharedClasses([]int{0}, []int{2}); len(got) != 0 {
		t.Fatalf("shared({R1},{R3}) = %v, want none", got)
	}
}

func TestRelClassesAndAttrs(t *testing.T) {
	q := chain3(t)
	ca, _ := q.ClassOf(tuple.Attr{Rel: 1, Name: "A"})
	if names := q.ClassAttrsOf(1, ca); len(names) != 1 || names[0] != "A" {
		t.Fatalf("R2 attrs of class A = %v", names)
	}
	if names := q.ClassAttrsOf(0, ca); len(names) != 1 || names[0] != "A" {
		t.Fatalf("R1 attrs of class A = %v", names)
	}
}

func TestRepresentativeCols(t *testing.T) {
	q := chain3(t)
	s := q.Schema(0).Concat(q.Schema(1)) // (R1.A, R2.A, R2.B)
	ca, _ := q.ClassOf(tuple.Attr{Rel: 0, Name: "A"})
	cb, _ := q.ClassOf(tuple.Attr{Rel: 1, Name: "B"})
	cols := q.RepresentativeCols(s, []int{ca, cb})
	if cols[0] != 0 && cols[0] != 1 {
		t.Fatalf("class A representative col = %d", cols[0])
	}
	if cols[1] != 2 {
		t.Fatalf("class B representative col = %d", cols[1])
	}
}

func TestRepresentativeColsPanicsWhenAbsent(t *testing.T) {
	q := chain3(t)
	cb, _ := q.ClassOf(tuple.Attr{Rel: 2, Name: "B"})
	defer func() {
		if recover() == nil {
			t.Fatal("must panic for class absent from schema")
		}
	}()
	q.RepresentativeCols(q.Schema(0), []int{cb})
}

func TestValidationErrors(t *testing.T) {
	a := tuple.RelationSchema(0, "A")
	b := tuple.RelationSchema(1, "A")
	if _, err := New([]*tuple.Schema{a}, nil); err == nil {
		t.Fatal("single relation accepted")
	}
	if _, err := New([]*tuple.Schema{a, b}, []Pred{
		{Left: tuple.Attr{Rel: 0, Name: "Z"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
	}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := New([]*tuple.Schema{a, b}, []Pred{
		{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 5, Name: "A"}},
	}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := New([]*tuple.Schema{a, b}, nil); err == nil {
		t.Fatal("disconnected join graph accepted")
	}
	c := tuple.RelationSchema(2, "A", "B")
	if _, err := New([]*tuple.Schema{a, b, c}, []Pred{
		{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
		{Left: tuple.Attr{Rel: 2, Name: "A"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
	}); err == nil {
		t.Fatal("self-join predicate accepted")
	}
}

// TestImpliedSelfJoinRejected: R.B = S.B and R.B = S.B2 put S.B and S.B2 in
// one class — the self-join S.B = S.B2, written through R. A pipeline rooted
// at S would never compare the two, so New rejects it like the direct form.
func TestImpliedSelfJoinRejected(t *testing.T) {
	r := tuple.RelationSchema(0, "B")
	s := tuple.RelationSchema(1, "B", "B2")
	_, err := New([]*tuple.Schema{r, s}, []Pred{
		{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 1, Name: "B"}},
		{Left: tuple.Attr{Rel: 0, Name: "B"}, Right: tuple.Attr{Rel: 1, Name: "B2"}},
	})
	if err == nil {
		t.Fatal("a class holding two attributes of one relation was accepted")
	}
	if !strings.Contains(err.Error(), "self-join") {
		t.Fatalf("error %q does not name the self-join", err)
	}
}

func TestPredsRoundTrip(t *testing.T) {
	q := chain3(t)
	if q.NumClasses() != 2 { // one class per predicate taken in
		t.Fatalf("classes = %d", q.NumClasses())
	}
	if q.N() != 3 {
		t.Fatalf("N = %d", q.N())
	}
}
