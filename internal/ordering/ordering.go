// Package ordering provides the adaptive join-ordering substrate A-Caching
// runs on top of (Section 4's modular decomposition, step 1). The paper uses
// A-Greedy [5], the authors' adaptive ordering algorithm for pipelined
// operators; this package implements its join analogue: each pipeline's
// operators are kept sorted by the classic rank (fanout − 1) / cost, with
// estimates profiled under the current order, and a pipeline is reordered
// only when the observed ranks violate the greedy invariant beyond a
// threshold — the hysteresis that keeps run-time overhead low.
package ordering

import (
	"sort"

	"acache/internal/profiler"
	"acache/internal/query"
)

// Advisor recommends pipeline orderings from profiled statistics.
type Advisor struct {
	q  *query.Query
	pf *profiler.Profiler
	// Threshold is the modeled-cost improvement a proposed order must
	// deliver before a reorder is advised. Reordering is expensive for the
	// caching layer (all caches drop, statistics reset), and per-operator
	// fanout estimates over W ≈ 10 profiled tuples are noisy, so the
	// default demands a 50% predicted improvement.
	Threshold float64
	// Cooldown is the number of advisories a pipeline sits out after a
	// reorder, letting fresh statistics accumulate before it may move
	// again.
	Cooldown int

	coolLeft []int
}

// New creates an advisor with the default hysteresis.
func New(q *query.Query, pf *profiler.Profiler) *Advisor {
	return &Advisor{q: q, pf: pf, Threshold: 0.5, Cooldown: 3, coolLeft: make([]int, q.N())}
}

// stepStat is a profiled view of one pipeline step: the relation it joins,
// its fanout (output/input tuple ratio) and per-tuple cost.
type stepStat struct {
	rel    int
	fanout float64
	cost   float64
	rank   float64
}

// rank computes the greedy rank (fanout − 1)/cost: negative for reducing
// operators (cheap reducers first), positive for expanding ones (expensive
// expanders last). Zero-cost steps get rank 0 — no information.
func rank(fanout, cost float64) float64 {
	if cost <= 0 {
		return 0
	}
	return (fanout - 1) / cost
}

// Advise returns a recommended ordering for pipeline pipe given its current
// order, and whether it differs enough to act on. It requires a ready
// pipeline; otherwise the current order stands.
func (a *Advisor) Advise(pipe int, current []int) ([]int, bool) {
	if a.coolLeft[pipe] > 0 {
		a.coolLeft[pipe]--
		return current, false
	}
	if !a.pf.PipelineReady(pipe) {
		return current, false
	}
	steps := make([]stepStat, len(current))
	for pos, rel := range current {
		din := a.pf.D(pipe, pos)
		dout := a.pf.D(pipe, pos+1)
		f := 0.0
		if din > 0 {
			f = dout / din
		}
		c := a.pf.C(pipe, pos)
		steps[pos] = stepStat{rel: rel, fanout: f, cost: c, rank: rank(f, c)}
	}
	curCost := modelCost(steps)
	proposed := append([]stepStat(nil), steps...)
	sort.SliceStable(proposed, func(i, j int) bool { return proposed[i].rank < proposed[j].rank })
	// Hysteresis: reorder only when the rank-sorted order's modeled cost
	// (per-step fanouts and costs treated as position-independent, the
	// standard stationarity approximation) improves on the current order
	// by more than the threshold fraction. Reordering drops every cache
	// and resets a pipeline's statistics, so near-ties must never flap —
	// the analogue of the paper's p = 20% change guard.
	newCost := modelCost(proposed)
	if newCost >= (1-a.Threshold)*curCost {
		return current, false
	}
	out := make([]int, len(proposed))
	same := true
	for i, s := range proposed {
		out[i] = s.rel
		if s.rel != current[i] {
			same = false
		}
	}
	if same {
		return current, false
	}
	a.coolLeft[pipe] = a.Cooldown
	return out, true
}

// modelCost evaluates the expected unit-time pipeline cost of an order under
// the independence approximation: a unit input flows through the steps, each
// multiplying cardinality by its fanout and charging cost per input tuple.
func modelCost(steps []stepStat) float64 {
	d, total := 1.0, 0.0
	for _, s := range steps {
		total += d * s.cost
		d *= s.fanout
	}
	return total
}

// InitialOrdering builds a static starting ordering: each pipeline joins
// the remaining relations in ascending index order, a neutral choice the
// advisor refines online.
func InitialOrdering(n int) [][]int {
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		for r := 0; r < n; r++ {
			if r != i {
				out[i] = append(out[i], r)
			}
		}
	}
	return out
}
