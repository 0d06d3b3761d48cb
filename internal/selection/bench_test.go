package selection

import (
	"math/rand"
	"testing"
)

// Wall-clock cost of the offline selection algorithms: the paper reports
// exhaustive search is "typically negligible for n ≤ 6" (m = O(n²)
// candidates); these benches back that claim for this implementation. The
// simulated cost meter deliberately excludes optimizer CPU (see DESIGN.md),
// so these are the numbers that justify the exclusion.

func benchProblem(m int, sharing bool) *Problem {
	rng := rand.New(rand.NewSource(int64(m)))
	p := &Problem{}
	// Enough pipelines that m nested-or-disjoint spans exist.
	nPipes := 2 + m/3
	for i := 0; i < nPipes; i++ {
		ops := make([]float64, 6)
		for j := range ops {
			ops[j] = 1 + rng.Float64()*20
		}
		p.OpCosts = append(p.OpCosts, ops)
	}
	groups := 0
	for attempts := 0; len(p.Cands) < m && attempts < 100*m; attempts++ {
		pipe := rng.Intn(nPipes)
		start := rng.Intn(5)
		end := start + 1 + rng.Intn(6-start-1)
		// Keep per-pipeline spans nested or disjoint.
		ok := true
		for _, c := range p.Cands {
			if c.Pipeline == pipe && c.Start <= end && start <= c.End {
				nested := (start >= c.Start && end <= c.End) || (c.Start >= start && c.End <= end)
				same := start == c.Start && end == c.End
				if !nested || same {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		g := groups
		if sharing && groups > 0 && rng.Intn(3) == 0 {
			g = rng.Intn(groups)
		} else {
			groups++
			p.GroupCosts = append(p.GroupCosts, rng.Float64()*10)
		}
		p.Cands = append(p.Cands, Candidate{
			Pipeline: pipe, Start: start, End: end, Group: g,
			Benefit: rng.Float64() * 25,
		})
	}
	return p
}

func BenchmarkExhaustive12(b *testing.B) {
	p := benchProblem(12, true)
	for i := 0; i < b.N; i++ {
		new(Workspace).Exhaustive(p)
	}
}

func BenchmarkExhaustive18(b *testing.B) {
	p := benchProblem(18, true)
	for i := 0; i < b.N; i++ {
		new(Workspace).Exhaustive(p)
	}
}

func BenchmarkGreedy18(b *testing.B) {
	p := benchProblem(18, true)
	for i := 0; i < b.N; i++ {
		new(Workspace).Greedy(p)
	}
}

func BenchmarkGreedy60(b *testing.B) {
	p := benchProblem(60, true)
	for i := 0; i < b.N; i++ {
		new(Workspace).Greedy(p)
	}
}

func BenchmarkOptimalNoSharing60(b *testing.B) {
	p := benchProblem(60, false)
	for i := 0; i < b.N; i++ {
		new(Workspace).OptimalNoSharing(p)
	}
}

func BenchmarkRandomizedLP18(b *testing.B) {
	p := benchProblem(18, true)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := Randomized(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}
