package selection

import (
	"math"
	"math/rand"
	"testing"
)

// budgetedInstance: one pipeline, two disjoint candidates; the big one has
// higher net benefit but eats the whole budget, while two small ones
// together beat it. The integrated optimizer must see that; the modular
// pipeline (select-then-allocate) picks the big one first and strands the
// budget.
func budgetedInstance() *BudgetedProblem {
	return &BudgetedProblem{
		Problem: Problem{
			OpCosts: [][]float64{{10, 10, 10, 10}},
			Cands: []Candidate{
				{Pipeline: 0, Start: 0, End: 3, Group: 0, Benefit: 27}, // net 25, 10 bytes
				{Pipeline: 0, Start: 0, End: 1, Group: 1, Benefit: 12}, // net 11, 4 bytes
				{Pipeline: 0, Start: 2, End: 3, Group: 2, Benefit: 11}, // net 10, 4 bytes
			},
			GroupCosts: []float64{2, 1, 1},
		},
		GroupBytes: []float64{10, 4, 4},
		Budget:     8,
	}
}

func TestBudgetedExhaustiveRespectsBudget(t *testing.T) {
	p := budgetedInstance()
	r := BudgetedExhaustive(p)
	if !p.feasible(r.Chosen) {
		t.Fatalf("infeasible choice %v", r.Chosen)
	}
	// The two small caches (net 21, 8 bytes) beat the big one (net 18,
	// does not fit).
	if len(r.Chosen) != 2 || r.Chosen[0] != 1 || r.Chosen[1] != 2 {
		t.Fatalf("chose %v, want the two small caches", r.Chosen)
	}
	if math.Abs(r.Value-21) > 1e-9 {
		t.Fatalf("value = %v, want 21", r.Value)
	}
}

func TestBudgetedGreedyFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		base := randomProblem(rng, true)
		bp := &BudgetedProblem{Problem: *base}
		maxGroup := 0
		for _, c := range bp.Cands {
			if c.Group > maxGroup {
				maxGroup = c.Group
			}
		}
		bp.GroupBytes = make([]float64, maxGroup+1)
		total := 0.0
		for g := range bp.GroupBytes {
			bp.GroupBytes[g] = 1 + rng.Float64()*9
			total += bp.GroupBytes[g]
		}
		bp.Budget = total * rng.Float64()
		opt := BudgetedExhaustive(bp)
		gr := BudgetedGreedy(bp)
		if !bp.feasible(gr.Chosen) || !bp.validate(gr.Chosen) {
			t.Fatalf("trial %d: greedy infeasible %v", trial, gr.Chosen)
		}
		if gr.Value > opt.Value+1e-6 {
			t.Fatalf("trial %d: greedy %v beats exhaustive %v", trial, gr.Value, opt.Value)
		}
	}
}

func TestBudgetedZeroBudgetChoosesNothing(t *testing.T) {
	p := budgetedInstance()
	p.Budget = 0
	if r := BudgetedExhaustive(p); len(r.Chosen) != 0 {
		t.Fatalf("zero budget chose %v", r.Chosen)
	}
	if r := BudgetedGreedy(p); len(r.Chosen) != 0 {
		t.Fatalf("greedy zero budget chose %v", r.Chosen)
	}
}
