package planner

import (
	"math/rand"
	"sort"
	"testing"

	"acache/internal/query"
	"acache/internal/tuple"
)

func chain3(t *testing.T) *query.Query {
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
		t.Fatal(err)
	}
	return q
}

func clique(t *testing.T, n int) *query.Query {
	t.Helper()
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	for i := range schemas {
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
		t.Fatal(err)
	}
	return q
}

func TestOrderingValidate(t *testing.T) {
	good := Ordering{{1, 2}, {0, 2}, {0, 1}}
	if err := good.Validate(3); err != nil {
		t.Fatalf("good ordering rejected: %v", err)
	}
	bad := []Ordering{
		{{1, 2}, {0, 2}},         // wrong pipeline count
		{{1}, {0, 2}, {0, 1}},    // wrong step count
		{{1, 1}, {0, 2}, {0, 1}}, // duplicate
		{{0, 2}, {0, 2}, {0, 1}}, // self
		{{1, 3}, {0, 2}, {0, 1}}, // out of range
	}
	for i, ord := range bad {
		if err := ord.Validate(3); err == nil {
			t.Fatalf("bad ordering %d accepted", i)
		}
	}
}

func TestPrefixInvariant(t *testing.T) {
	// Figure 3's plan: ΔR1: R2,R3; ΔR2: R3,R1; ΔR3: R2,R1.
	ord := Ordering{{1, 2}, {2, 0}, {1, 0}}
	if !SatisfiesPrefixInvariant(ord, []int{1, 2}) {
		t.Fatal("{R2,R3} must satisfy the prefix invariant (Example 3.4)")
	}
	// Example 3.4's negative case: {R2,R1} fails because the join with R1
	// is not the first in ΔR2's pipeline.
	if SatisfiesPrefixInvariant(ord, []int{0, 1}) {
		t.Fatal("{R1,R2} must not satisfy the prefix invariant (Example 3.4)")
	}
	// The full relation set always satisfies it.
	if !SatisfiesPrefixInvariant(ord, []int{0, 1, 2}) {
		t.Fatal("full set must always satisfy the prefix invariant")
	}
}

func TestCandidatesFigure3(t *testing.T) {
	q := chain3(t)
	ord := Ordering{{1, 2}, {2, 0}, {1, 0}}
	cands := Candidates(q, ord)
	if len(cands) != 1 {
		t.Fatalf("candidates = %v, want exactly the R2⋈R3 cache in ΔR1", cands)
	}
	c := cands[0]
	if c.Pipeline != 0 || c.Start != 0 || c.End != 1 || c.GC {
		t.Fatalf("candidate = %+v", c)
	}
	// Its key is the B class (the probe uses R1.A → join attrs between
	// prefix {R1} and segment {R2,R3} is class A).
	if len(c.KeyClasses) != 1 {
		t.Fatalf("key classes = %v", c.KeyClasses)
	}
}

// TestExample41 reproduces the paper's Example 4.1: the 6-way equijoin on A
// with Figure 5(a)'s pipelines; the prefix property holds exactly for
// {R1,R2}, {R4,R5}, {R1,R2,R3}, and {R1,R2,R3,R4,R5}.
func TestExample41(t *testing.T) {
	q := clique(t, 6)
	ord := Ordering{
		{1, 2, 3, 4, 5}, // ΔR1: R2,R3,R4,R5,R6
		{0, 2, 4, 3, 5}, // ΔR2: R1,R3,R5,R4,R6
		{1, 0, 3, 4, 5}, // ΔR3: R2,R1,R4,R5,R6
		{4, 0, 1, 2, 5}, // ΔR5 wait—pipelines are by relation; see below
		{3, 0, 1, 2, 5}, // ΔR5: R4,R1,R2,R3,R6? adjusted below
		{1, 0, 3, 4, 2}, // ΔR6: R2,R1,R4,R5,R3
	}
	// Figure 5(a) lists pipelines for ΔR1..ΔR6 as:
	// R2,R3,R4,R5,R6 / R1,R3,R5,R4,R6 / R2,R1,R4,R5,R6 /
	// R5,R1,R2,R3,R6 / R4,R2,R3,R1,R6 / R2,R1,R4,R5,R3.
	ord = Ordering{
		{1, 2, 3, 4, 5},
		{0, 2, 4, 3, 5},
		{1, 0, 3, 4, 5},
		{4, 0, 1, 2, 5},
		{3, 1, 2, 0, 5},
		{1, 0, 3, 4, 2},
	}
	if err := ord.Validate(6); err != nil {
		t.Fatalf("ordering: %v", err)
	}
	sets := map[string][]int{
		"{R1,R2}":            {0, 1},
		"{R4,R5}":            {3, 4},
		"{R1,R2,R3}":         {0, 1, 2},
		"{R1,R2,R3,R4,R5}":   {0, 1, 2, 3, 4},
		"{R1,R3} (negative)": {0, 2},
		"{R2,R3} (negative)": {1, 2},
		"{R3,R4,R5} (neg)":   {2, 3, 4},
		"{R1,R2,R4} (neg)":   {0, 1, 3},
		"{R4,R5,R6} (neg)":   {3, 4, 5},
	}
	want := map[string]bool{
		"{R1,R2}": true, "{R4,R5}": true,
		"{R1,R2,R3}": true, "{R1,R2,R3,R4,R5}": true,
	}
	for name, rels := range sets {
		if got := SatisfiesPrefixInvariant(ord, rels); got != want[name] {
			t.Fatalf("%s: prefix invariant = %v, want %v", name, got, want[name])
		}
	}
	// Example 4.2: the {R1,R2} cache is shared in ΔR3, ΔR4, ΔR6 pipelines.
	cands := Candidates(q, ord)
	count12 := map[string]int{}
	for _, c := range cands {
		if len(c.Segment) == 2 && c.Segment[0] == 0 && c.Segment[1] == 1 {
			count12[c.SharingID()]++
		}
	}
	for g, n := range count12 {
		if n != 3 {
			t.Fatalf("{R1,R2} sharing group %s has %d placements, want 3 (ΔR3, ΔR4, ΔR6)", g, n)
		}
	}
	if len(count12) != 1 {
		t.Fatalf("{R1,R2} placements split across %d groups", len(count12))
	}
}

func TestForestNesting(t *testing.T) {
	q := clique(t, 6)
	ord := Ordering{
		{1, 2, 3, 4, 5},
		{0, 2, 4, 3, 5},
		{1, 0, 3, 4, 5},
		{4, 0, 1, 2, 5},
		{3, 1, 2, 0, 5},
		{1, 0, 3, 4, 2},
	}
	// ΔR6's pipeline has nested candidates (Figure 5(c)): any two that
	// overlap must nest strictly — the containment forest Theorem 4.1's DP
	// builds over them has no other shape.
	var six []*Spec
	for _, c := range Candidates(q, ord) {
		if c.Pipeline == 5 {
			six = append(six, c)
		}
	}
	if len(six) < 2 {
		t.Fatalf("ΔR6 candidates: %v", six)
	}
	nested := 0
	for i, a := range six {
		for _, b := range six[i+1:] {
			if !a.Overlaps(b) {
				continue
			}
			if !strictlyNested(a, b) {
				t.Fatalf("%v and %v overlap without nesting", a, b)
			}
			nested++
		}
	}
	if nested == 0 {
		t.Fatalf("ΔR6 candidates never nest: %v", six)
	}
}

func TestGCCandidatesQuotaAndClosure(t *testing.T) {
	q := clique(t, 4)
	// ΔR4: R2,R3,R1 — Example 6.1's shape: {R2,R3} in ΔR4 lacks the
	// prefix invariant but closes with Y = {R1}.
	ord := Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 2, 0}}
	prefix := Candidates(q, ord)
	gcs := GCCandidates(q, ord, prefix, len(prefix)+100)
	foundClosure := false
	for _, c := range gcs {
		if c.Pipeline == 3 && len(c.Segment) == 2 && c.Segment[0] == 1 && c.Segment[1] == 2 {
			foundClosure = true
			if c.SelfMaint || len(c.Y) != 1 || c.Y[0] != 0 {
				t.Fatalf("(R2⋈R3) candidate should close with Y={R1}: %+v", c)
			}
		}
	}
	if !foundClosure {
		t.Fatalf("missing Example 6.1 candidate among %v", gcs)
	}
	// Quota: with quota ≤ p, no GC candidates.
	if got := GCCandidates(q, ord, prefix, len(prefix)); got != nil {
		t.Fatalf("quota ≤ p must yield none, got %v", got)
	}
	// Quota p+1 yields exactly one, and it must be a smallest-Y one.
	if got := GCCandidates(q, ord, prefix, len(prefix)+1); len(got) != 1 {
		t.Fatalf("quota p+1 yielded %v", got)
	}
}

func TestGCSelfMaintFallback(t *testing.T) {
	q := chain3(t)
	// n = 3: no host-free closure can exist, so every non-prefix segment
	// becomes a self-maintained candidate.
	ord := Ordering{{1, 2}, {0, 2}, {1, 0}}
	prefix := Candidates(q, ord)
	gcs := GCCandidates(q, ord, prefix, 10)
	if len(gcs) == 0 {
		t.Fatal("no GC candidates")
	}
	for _, c := range gcs {
		if !c.SelfMaint {
			t.Fatalf("3-way GC candidate %+v should be self-maintained", c)
		}
		if len(c.Y) != 0 {
			t.Fatalf("self-maintained candidate has Y = %v", c.Y)
		}
	}
}

func TestSharingIDDistinguishesModes(t *testing.T) {
	a := &Spec{Segment: []int{1, 2}, KeyClasses: []int{0}}
	b := &Spec{Segment: []int{1, 2}, KeyClasses: []int{0}, GC: true, SelfMaint: true}
	c := &Spec{Segment: []int{1, 2}, KeyClasses: []int{0}, GC: true, Y: []int{3}}
	if a.SharingID() == b.SharingID() || b.SharingID() == c.SharingID() || a.SharingID() == c.SharingID() {
		t.Fatal("sharing IDs must distinguish prefix, self-maintained, and reduced caches")
	}
}

func TestOverlapsAndContains(t *testing.T) {
	a := &Spec{Pipeline: 0, Start: 0, End: 1}
	b := &Spec{Pipeline: 0, Start: 1, End: 2}
	c := &Spec{Pipeline: 0, Start: 0, End: 2}
	d := &Spec{Pipeline: 1, Start: 0, End: 1}
	if !a.Overlaps(b) || !a.Overlaps(c) || a.Overlaps(d) {
		t.Fatal("overlap logic wrong")
	}
}

// strictlyNested reports whether one segment contains the other and is wider.
func strictlyNested(a, b *Spec) bool {
	if a.End-a.Start < b.End-b.Start {
		a, b = b, a
	}
	return a.Start <= b.Start && b.End <= a.End && a.End-a.Start > b.End-b.Start
}

// TestPropertyCandidatesWellFormed: for random orderings of random clique
// sizes, every enumerated candidate satisfies the prefix invariant, covers
// ≥ 2 operators, carries a nonempty key, and candidates within a pipeline
// are nested-or-disjoint (Theorem 4.1's premise, which the selection DP
// relies on).
func TestPropertyCandidatesWellFormed(t *testing.T) {
	rng := newRand(77)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(4)
		q := clique(t, n)
		ord := make(Ordering, n)
		for i := 0; i < n; i++ {
			var others []int
			for r := 0; r < n; r++ {
				if r != i {
					others = append(others, r)
				}
			}
			rng.Shuffle(len(others), func(a, b int) { others[a], others[b] = others[b], others[a] })
			ord[i] = others
		}
		cands := Candidates(q, ord)
		for _, c := range cands {
			if c.End <= c.Start {
				t.Fatalf("trial %d: single-operator candidate %v", trial, c)
			}
			if !SatisfiesPrefixInvariant(ord, c.Segment) {
				t.Fatalf("trial %d: candidate %v violates the prefix invariant", trial, c)
			}
			if len(c.KeyClasses) == 0 {
				t.Fatalf("trial %d: candidate %v has an empty key", trial, c)
			}
		}
		// Per-pipeline nesting.
		byPipe := make(map[int][]*Spec)
		for _, c := range cands {
			byPipe[c.Pipeline] = append(byPipe[c.Pipeline], c)
		}
		for _, specs := range byPipe {
			for i := 0; i < len(specs); i++ {
				for j := i + 1; j < len(specs); j++ {
					a, b := specs[i], specs[j]
					if a.Overlaps(b) && !strictlyNested(a, b) {
						t.Fatalf("trial %d: partial overlap %v / %v", trial, a, b)
					}
				}
			}
		}
		// GC candidates: closures must satisfy the prefix invariant with Y
		// added, or be self-maintained with empty Y.
		for _, c := range GCCandidates(q, ord, cands, len(cands)+20) {
			if c.SelfMaint {
				if len(c.Y) != 0 {
					t.Fatalf("trial %d: self-maintained %v has Y", trial, c)
				}
				continue
			}
			union := append(append([]int(nil), c.Segment...), c.Y...)
			sortInts(union)
			if !SatisfiesPrefixInvariant(ord, union) {
				t.Fatalf("trial %d: GC closure %v not prefix-closed", trial, c)
			}
			for _, y := range c.Y {
				if y == c.Pipeline {
					t.Fatalf("trial %d: host in Y: %v", trial, c)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	ord := Ordering{{1, 2}, {0, 2}, {0, 1}}
	cp := ord.Clone()
	cp[0][0] = 9
	if ord[0][0] == 9 {
		t.Fatal("Clone aliased")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func sortInts(v []int) { sort.Ints(v) }
