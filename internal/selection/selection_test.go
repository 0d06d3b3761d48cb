package selection

import (
	"math"
	"math/rand"
	"testing"
)

// validate reports whether no two chosen candidates overlap.
func (p *Problem) validate(chosen []int) bool {
	for a := 0; a < len(chosen); a++ {
		for b := a + 1; b < len(chosen); b++ {
			if p.Cands[chosen[a]].overlaps(&p.Cands[chosen[b]]) {
				return false
			}
		}
	}
	return true
}

// simpleProblem: one pipeline of 3 operators (costs 10, 10, 10), two nested
// candidates: small {0,1} benefit 12 cost 5 (net 7), big {0,1,2} benefit 18
// cost 12 (net 6). Optimal = small alone.
func simpleProblem() *Problem {
	return &Problem{
		OpCosts: [][]float64{{10, 10, 10}},
		Cands: []Candidate{
			{Pipeline: 0, Start: 0, End: 1, Group: 0, Benefit: 12},
			{Pipeline: 0, Start: 0, End: 2, Group: 1, Benefit: 18},
		},
		GroupCosts: []float64{5, 12},
	}
}

func TestOptimalNoSharingPicksBestNested(t *testing.T) {
	r := new(Workspace).OptimalNoSharing(simpleProblem())
	if len(r.Chosen) != 1 || r.Chosen[0] != 0 {
		t.Fatalf("chose %v, want [0]", r.Chosen)
	}
	if math.Abs(r.Value-7) > 1e-9 {
		t.Fatalf("value %v, want 7", r.Value)
	}
}

func TestOptimalNoSharingNegativeNetDropsAll(t *testing.T) {
	p := simpleProblem()
	p.GroupCosts = []float64{20, 30}
	r := new(Workspace).OptimalNoSharing(p)
	if len(r.Chosen) != 0 || r.Value != 0 {
		t.Fatalf("chose %v value %v, want nothing", r.Chosen, r.Value)
	}
}

func TestOptimalNoSharingSiblings(t *testing.T) {
	// Parent {0..3} net 10 vs two disjoint children {0,1} net 6 and {2,3}
	// net 7: children sum 13 wins.
	p := &Problem{
		OpCosts: [][]float64{{10, 10, 10, 10}},
		Cands: []Candidate{
			{Pipeline: 0, Start: 0, End: 3, Group: 0, Benefit: 15},
			{Pipeline: 0, Start: 0, End: 1, Group: 1, Benefit: 8},
			{Pipeline: 0, Start: 2, End: 3, Group: 2, Benefit: 9},
		},
		GroupCosts: []float64{5, 2, 2},
	}
	r := new(Workspace).OptimalNoSharing(p)
	if len(r.Chosen) != 2 || r.Chosen[0] != 1 || r.Chosen[1] != 2 {
		t.Fatalf("chose %v, want [1 2]", r.Chosen)
	}
	if math.Abs(r.Value-13) > 1e-9 {
		t.Fatalf("value %v, want 13", r.Value)
	}
}

func TestExhaustiveMatchesOptimalOnNoSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, false)
		a := new(Workspace).OptimalNoSharing(p)
		b := new(Workspace).Exhaustive(p)
		if !p.validate(a.Chosen) {
			t.Fatalf("trial %d: DP chose overlapping caches %v", trial, a.Chosen)
		}
		if math.Abs(a.Value-b.Value) > 1e-6 {
			t.Fatalf("trial %d: DP value %v != exhaustive %v (DP %v, EX %v)\n%+v",
				trial, a.Value, b.Value, a.Chosen, b.Chosen, p)
		}
	}
}

func TestSharedCachesFavoured(t *testing.T) {
	// Two pipelines, a shared cache in both: individually unprofitable
	// (benefit 6 each, cost 10) but shared it pays (12 > 10).
	p := &Problem{
		OpCosts: [][]float64{{5, 5}, {5, 5}},
		Cands: []Candidate{
			{Pipeline: 0, Start: 0, End: 1, Group: 0, Benefit: 6},
			{Pipeline: 1, Start: 0, End: 1, Group: 0, Benefit: 6},
		},
		GroupCosts: []float64{10},
	}
	r := new(Workspace).Exhaustive(p)
	if len(r.Chosen) != 2 {
		t.Fatalf("chose %v, want both shared placements", r.Chosen)
	}
	if math.Abs(r.Value-2) > 1e-9 {
		t.Fatalf("value %v, want 2", r.Value)
	}
	g := new(Workspace).Greedy(p)
	if len(g.Chosen) != 2 {
		t.Fatalf("greedy chose %v, want both shared placements", g.Chosen)
	}
}

func TestGreedyWithinLogFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, true)
		opt := new(Workspace).Exhaustive(p)
		g := new(Workspace).Greedy(p)
		if !p.validate(g.Chosen) {
			t.Fatalf("trial %d: greedy chose overlapping caches %v", trial, g.Chosen)
		}
		if g.Value > opt.Value+1e-6 {
			t.Fatalf("trial %d: greedy value %v exceeds optimum %v", trial, g.Value, opt.Value)
		}
		// The approximation guarantee is on the minimization form; on the
		// maximization form we check the greedy never loses more than the
		// log-factor bound of the total covered cost.
		totalCost := 0.0
		for _, row := range p.OpCosts {
			for _, c := range row {
				totalCost += c
			}
		}
		n := float64(len(p.OpCosts[0]) + 1)
		bound := (math.Log(n) + 2) * (totalCost - opt.Value)
		if got := totalCost - g.Value; got > bound+totalCost*0.5+1e-6 {
			t.Fatalf("trial %d: greedy min-form cost %v way beyond bound %v (opt %v)",
				trial, got, bound, opt.Value)
		}
	}
}

func TestRandomizedFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, true)
		opt := new(Workspace).Exhaustive(p)
		r, err := Randomized(p, rng)
		if err != nil {
			t.Fatalf("trial %d: Randomized: %v\n%+v", trial, err, p)
		}
		if !p.validate(r.Chosen) {
			t.Fatalf("trial %d: randomized chose overlapping caches %v", trial, r.Chosen)
		}
		if r.Value > opt.Value+1e-6 {
			t.Fatalf("trial %d: randomized value %v exceeds optimum %v", trial, r.Value, opt.Value)
		}
	}
}

func TestSelectDispatch(t *testing.T) {
	// No sharing → DP (optimal); sharing and small m → exhaustive.
	p := simpleProblem()
	r := new(Workspace).Select(p)
	if math.Abs(r.Value-7) > 1e-9 {
		t.Fatalf("Select on no-sharing: value %v, want 7", r.Value)
	}
	shared := &Problem{
		OpCosts: [][]float64{{5, 5}, {5, 5}},
		Cands: []Candidate{
			{Pipeline: 0, Start: 0, End: 1, Group: 0, Benefit: 6},
			{Pipeline: 1, Start: 0, End: 1, Group: 0, Benefit: 6},
		},
		GroupCosts: []float64{10},
	}
	r = new(Workspace).Select(shared)
	if len(r.Chosen) != 2 {
		t.Fatalf("Select on shared: chose %v, want both", r.Chosen)
	}
}

// randomProblem generates a small instance: 2–3 pipelines of 3–5 operators,
// up to 6 candidates with random nested-or-disjoint spans. When sharing is
// requested, some candidates are assigned the same group.
func randomProblem(rng *rand.Rand, sharing bool) *Problem {
	nPipes := 2 + rng.Intn(2)
	p := &Problem{}
	for i := 0; i < nPipes; i++ {
		ops := make([]float64, 3+rng.Intn(3))
		for j := range ops {
			ops[j] = 1 + rng.Float64()*20
		}
		p.OpCosts = append(p.OpCosts, ops)
	}
	nCands := 1 + rng.Intn(6)
	nGroups := 0
	for c := 0; c < nCands; c++ {
		pipe := rng.Intn(nPipes)
		nOps := len(p.OpCosts[pipe])
		start := rng.Intn(nOps - 1)
		end := start + 1 + rng.Intn(nOps-start-1)
		group := nGroups
		if sharing && nGroups > 0 && rng.Intn(3) == 0 {
			group = rng.Intn(nGroups)
		} else {
			nGroups++
			p.GroupCosts = append(p.GroupCosts, rng.Float64()*15)
		}
		p.Cands = append(p.Cands, Candidate{
			Pipeline: pipe, Start: start, End: end,
			Group: group, Benefit: rng.Float64()*30 - 5,
		})
	}
	// Nested-only structure within a pipeline is required by the DP; drop
	// partially overlapping candidates to mirror the prefix invariant's
	// guarantee (Theorem 4.1's premise).
	var kept []Candidate
	for _, c := range p.Cands {
		ok := true
		for _, k := range kept {
			if c.Pipeline == k.Pipeline && c.Start <= k.End && k.Start <= c.End {
				nested := (c.Start >= k.Start && c.End <= k.End) || (k.Start >= c.Start && k.End <= c.End)
				same := c.Start == k.Start && c.End == k.End
				if !nested || same {
					ok = false
					break
				}
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	p.Cands = kept
	return p
}
