// Package selection implements the offline cache-selection algorithms of
// Section 4.4 and Appendix B: the optimal linear-time forest dynamic program
// for instances without shared caches (Theorem 4.1 / 4.2), exhaustive search
// over the 2^m candidate subsets (used for small m, as the paper does for
// n ≤ 6), the greedy O(log n)-approximation, and the randomized
// LP-rounding O(log n)-approximation (Theorem 4.3 / B.1).
//
// All algorithms work on a neutral Problem description: candidate caches
// with measured statistics, covering operator positions in pipelines, plus
// sharing groups whose update cost is paid once no matter how many group
// members are used.
package selection

// Candidate is one candidate cache with its measured statistics.
type Candidate struct {
	// Pipeline and the covered operator positions Start..End (inclusive).
	Pipeline   int
	Start, End int
	// Group is the sharing-group index (Definition 4.1); every candidate
	// belongs to exactly one group, singletons included.
	Group int
	// Benefit is benefit(C): the unit-time processing saved by using the
	// cache, before maintenance cost (Section 4.1).
	Benefit float64
}

// ops returns the number of operators the candidate covers.
func (c *Candidate) ops() int { return c.End - c.Start + 1 }

func (c *Candidate) overlaps(d *Candidate) bool {
	return c.Pipeline == d.Pipeline && c.Start <= d.End && d.Start <= c.End
}

// Problem is a cache-selection instance.
type Problem struct {
	// OpCosts[i][j] is d_ij × c_ij: the unit-time processing cost of
	// operator j of pipeline i when no cache covers it. Only used by the
	// minimization-form algorithms (greedy, LP); the objective value
	// reported by every algorithm is the maximization form.
	OpCosts [][]float64
	// Cands are the candidate caches.
	Cands []Candidate
	// GroupCosts[g] is cost(C) for the caches of group g: the unit-time
	// maintenance cost, paid once per group used.
	GroupCosts []float64
}

// Result is a selected candidate subset and its objective value
// Σ benefit(C) − Σ_{groups used} cost(G) (the paper's maximization form).
type Result struct {
	Chosen []int // candidate indexes, ascending
	Value  float64
}

// objective computes the maximization-form value of a candidate subset:
// benefits summed in subset order, then each used group's cost subtracted
// once in first-occurrence order. Allocation-free and deterministic —
// Exhaustive calls it 2^m times per selection, and a re-optimizing engine
// must not see run-to-run float-sum jitter. The duplicate-group scan is
// quadratic in the subset size, which non-overlap keeps small.
func (p *Problem) objective(chosen []int) float64 {
	v := 0.0
	for _, i := range chosen {
		v += p.Cands[i].Benefit
	}
	for ai, i := range chosen {
		g := p.Cands[i].Group
		first := true
		for _, j := range chosen[:ai] {
			if p.Cands[j].Group == g {
				first = false
				break
			}
		}
		if first {
			v -= p.GroupCosts[g]
		}
	}
	return v
}

// hasSharing reports whether any group has two or more members.
// Allocation-free: quadratic in m, which Select's call cadence (once per
// re-optimization) and candidate counts keep trivial.
func (p *Problem) hasSharing() bool {
	for a := range p.Cands {
		for b := a + 1; b < len(p.Cands); b++ {
			if p.Cands[a].Group == p.Cands[b].Group {
				return true
			}
		}
	}
	return false
}

// exhaustiveLimit caps exhaustive search at 2^18 subsets; the paper reports
// exhaustive overhead is negligible for n ≤ 6 (m = O(n²)).
const exhaustiveLimit = 18
