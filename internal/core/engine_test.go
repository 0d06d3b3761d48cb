package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"acache/internal/oracle"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/synth"
	"acache/internal/tuple"
)

// cacheStates renders every known candidate's state, sorted by placement.
func cacheStates(en *Engine) string {
	var b strings.Builder
	for _, c := range en.Candidates() {
		fmt.Fprintf(&b, "%v:%v ", c.Spec, c.State)
	}
	return b.String()
}

func threeWay(t *testing.T) *query.Query {
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
	return q
}

func fourWayClique(t *testing.T) *query.Query { return starOnA(t, 4) }

// starOnA is R0(A) ⋈_A R1(A) ⋈_A … ⋈_A Rn-1(A), every predicate anchored at R0.
func starOnA(t *testing.T, n int) *query.Query {
	t.Helper()
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	for i := 0; i < n; i++ {
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
	return q
}

// windowSource builds a small windowed synthetic source for q.
func windowSource(q *query.Query, window int, domain int64, seed int64) *stream.Source {
	rels := make([]stream.RelStream, q.N())
	for i := 0; i < q.N(); i++ {
		gens := make([]synth.ValueGen, q.Schema(i).Len())
		for c := range gens {
			gens[c] = synth.Uniform(0, domain, seed+int64(i*10+c))
		}
		rels[i] = stream.RelStream{Gen: synth.Tuples(gens...), WindowSize: window, Rate: 1}
	}
	return stream.NewSource(rels)
}

// runVsOracle drives n updates through the engine and the oracle, failing on
// any output-count divergence.
func runVsOracle(t *testing.T, q *query.Query, en *Engine, src *stream.Source, n int) {
	t.Helper()
	o := oracle.New(q)
	for i := 0; i < n; i++ {
		u := src.Next()
		got := en.Process(u)
		want := len(o.Process(u))
		if got != want {
			t.Fatalf("update %d %v: engine %d outputs, oracle %d (used caches: %v)",
				i, u, got, want, en.UsedCaches())
		}
	}
}

func TestEngineAdaptiveMatchesOracle3Way(t *testing.T) {
	q := threeWay(t)
	en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
		ReoptInterval: 300,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	runVsOracle(t, q, en, windowSource(q, 40, 10, 2), 5000)
	reopts, _ := en.Reopts()
	if reopts == 0 {
		t.Fatal("expected at least one re-optimization over 5000 updates")
	}
}

func TestEngineAdaptiveMatchesOracle4WayWithGC(t *testing.T) {
	q := fourWayClique(t)
	en, err := NewEngine(q, planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 2, 0}}, Config{
		ReoptInterval: 400,
		GCQuota:       6,
		Seed:          3,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	runVsOracle(t, q, en, windowSource(q, 30, 8, 4), 6000)
}

func TestEngineUnderMemoryPressureMatchesOracle(t *testing.T) {
	q := threeWay(t)
	en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
		ReoptInterval: 300,
		MemoryBudget:  2048, // tiny: force drops and partial caches
		Seed:          7,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	src := windowSource(q, 60, 6, 8)
	o := oracle.New(q)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		u := src.Next()
		got := en.Process(u)
		want := len(o.Process(u))
		if got != want {
			t.Fatalf("update %d: engine %d, oracle %d", i, got, want)
		}
		// Jiggle the budget mid-run (Figure 13's regime).
		if i%1000 == 999 {
			en.SetMemoryBudget(1024 + rng.Intn(8)*1024)
		}
	}
}

// TestBudgetAwareMatchesOracle: the integrated budgeted selection must stay
// oracle-correct under a tight, shifting budget.
func TestBudgetAwareMatchesOracle(t *testing.T) {
	q := threeWay(t)
	en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
		ReoptInterval: 300,
		MemoryBudget:  3 * 1024,
		BudgetAware:   true,
		GCQuota:       6,
		Seed:          27,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	runVsOracle(t, q, en, windowSource(q, 50, 8, 28), 5000)
}

func TestEngineForcedCacheMatchesOracle(t *testing.T) {
	q := threeWay(t)
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}}
	cands := planner.Candidates(q, ord)
	if len(cands) != 1 {
		t.Fatalf("want 1 candidate, got %v", cands)
	}
	en, err := NewEngine(q, ord, Config{ForcedCaches: cands, Seed: 11})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	runVsOracle(t, q, en, windowSource(q, 50, 5, 12), 4000)
	if len(en.UsedCaches()) != 1 {
		t.Fatalf("forced cache not in use: %v", cacheStates(en))
	}
}

func TestEngineDisableCachingIsPlainMJoin(t *testing.T) {
	q := threeWay(t)
	en, err := NewEngine(q, planner.Ordering{{1, 2}, {2, 0}, {1, 0}}, Config{
		DisableCaching: true,
		Seed:           13,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	runVsOracle(t, q, en, windowSource(q, 40, 6, 14), 3000)
	if len(en.UsedCaches()) != 0 {
		t.Fatal("DisableCaching must never use caches")
	}
}

func TestEngineSelectionModesMatchOracle(t *testing.T) {
	for _, mode := range []SelectionMode{SelectExhaustive, SelectGreedy, SelectRandomized} {
		q := fourWayClique(t)
		en, err := NewEngine(q, planner.Ordering{{1, 2, 3}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}}, Config{
			ReoptInterval: 400,
			Selection:     mode,
			Seed:          17,
		})
		if err != nil {
			t.Fatalf("mode %v: NewEngine: %v", mode, err)
		}
		runVsOracle(t, q, en, windowSource(q, 30, 8, 18), 4000)
	}
}

func TestEngineEventuallyUsesProfitableCache(t *testing.T) {
	// The default three-way workload of Section 7.2: T.B values repeat
	// (multiplicity 5), so the R⋈S cache in ΔT's pipeline is profitable
	// and the engine should converge to using it.
	q := threeWay(t)
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}} // candidate: R2⋈R3 in ΔR1
	en, err := NewEngine(q, ord, Config{ReoptInterval: 500, Seed: 19})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// ΔR1 is the high-rate probing stream; R2/R3 change rarely.
	src := stream.NewSource([]stream.RelStream{
		{Gen: synth.Tuples(synth.Counter(0, 20, 5)), WindowSize: 100, Rate: 10},
		{Gen: synth.Tuples(synth.Counter(0, 20, 1), synth.Counter(0, 20, 1)), WindowSize: 50, Rate: 1},
		{Gen: synth.Tuples(synth.Counter(0, 20, 1)), WindowSize: 50, Rate: 1},
	})
	for i := 0; i < 20000; i++ {
		en.Process(src.Next())
	}
	if len(en.UsedCaches()) == 0 {
		t.Fatalf("engine never adopted the profitable cache; states: %v", cacheStates(en))
	}
}

// TestUsedCachesDeterministic runs two identically seeded adaptive engines
// over one stream until they use several caches, and checks that UsedCaches
// lists them in one order, in placement-key order, call after call.
func TestUsedCachesDeterministic(t *testing.T) {
	q := fourWayClique(t)
	mk := func() *Engine {
		en, err := NewEngine(q, planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {1, 2, 0}}, Config{
			ReoptInterval: 400,
			GCQuota:       6,
			Seed:          3,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		return en
	}
	a, b := mk(), mk()
	src := windowSource(q, 30, 8, 4)
	keys := func(en *Engine) []string {
		var out []string
		for _, spec := range en.UsedCaches() {
			out = append(out, placementKey(spec))
		}
		return out
	}
	most := 0
	for i := 0; i < 6000; i++ {
		u := src.Next()
		a.Process(u)
		b.Process(u)
		want := keys(a)
		most = max(most, len(want))
		if !slices.IsSorted(want) {
			t.Fatalf("update %d: used caches out of placement order: %v", i, want)
		}
		for j := 0; j < 3; j++ {
			if got, again := keys(b), keys(a); !slices.Equal(got, want) || !slices.Equal(again, want) {
				t.Fatalf("update %d: used caches %v, then %v, twin engine %v", i, want, again, got)
			}
		}
	}
	if most < 2 {
		t.Fatalf("at most %d caches in use: nothing to order", most)
	}
	t.Logf("up to %d caches in use", most)
}
