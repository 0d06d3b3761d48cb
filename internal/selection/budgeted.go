package selection

import "sort"

// Budget-aware selection: the paper deliberately decouples cache selection
// (assuming infinite memory) from memory allocation (Section 5's greedy
// priorities), noting the full integrated problem as future work. This file
// provides the integrated variant for comparison: choose a nonoverlapping
// candidate subset maximizing net benefit subject to a memory budget over
// the chosen sharing groups. The ext-budget experiment (internal/bench) runs
// the engine both ways across tight budgets.

// BudgetedProblem extends Problem with per-group memory footprints.
type BudgetedProblem struct {
	Problem
	// GroupBytes[g] is the expected memory footprint of group g's shared
	// cache instance.
	GroupBytes []float64
	// Budget is the available memory in the same unit.
	Budget float64
}

// feasible reports whether the chosen set's group footprints fit the budget.
func (p *BudgetedProblem) feasible(chosen []int) bool {
	groups := make(map[int]bool)
	total := 0.0
	for _, i := range chosen {
		g := p.Cands[i].Group
		if !groups[g] {
			groups[g] = true
			total += p.GroupBytes[g]
		}
	}
	return total <= p.Budget
}

// BudgetedExhaustive enumerates every nonoverlapping, budget-feasible
// candidate subset and returns the best — exact, exponential in m.
func BudgetedExhaustive(p *BudgetedProblem) Result {
	m := len(p.Cands)
	bestVal := 0.0
	var bestSet []int
	var cur []int
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			if !p.feasible(cur) {
				return
			}
			if v := p.objective(cur); v > bestVal {
				bestVal = v
				bestSet = append([]int(nil), cur...)
			}
			return
		}
		rec(i + 1)
		for _, j := range cur {
			if p.Cands[i].overlaps(&p.Cands[j]) {
				return
			}
		}
		cur = append(cur, i)
		rec(i + 1)
		cur = cur[:len(cur)-1]
	}
	rec(0)
	sort.Ints(bestSet)
	return Result{Chosen: bestSet, Value: bestVal}
}

// BudgetedGreedy adds whole sharing groups in descending net-benefit-per-
// byte order (the Section 5 priority, applied at selection time), skipping
// groups that no longer fit or whose members all overlap earlier choices.
func BudgetedGreedy(p *BudgetedProblem) Result {
	type groupInfo struct {
		id      int
		members []int
		benefit float64
	}
	groups := make(map[int]*groupInfo)
	var order []int
	for i, c := range p.Cands {
		g, ok := groups[c.Group]
		if !ok {
			g = &groupInfo{id: c.Group}
			groups[c.Group] = g
			order = append(order, c.Group)
		}
		g.members = append(g.members, i)
		if c.Benefit > 0 {
			g.benefit += c.Benefit
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		ba := bytesOr1(p.GroupBytes[ga.id])
		bb := bytesOr1(p.GroupBytes[gb.id])
		pa := (ga.benefit - p.GroupCosts[ga.id]) / ba
		pb := (gb.benefit - p.GroupCosts[gb.id]) / bb
		if pa != pb {
			return pa > pb
		}
		return ga.id < gb.id
	})
	remaining := p.Budget
	var chosen []int
	for _, gid := range order {
		g := groups[gid]
		if g.benefit <= p.GroupCosts[gid] || p.GroupBytes[gid] > remaining {
			continue
		}
		// Admit the group's non-overlapping, positive-benefit members.
		added := false
		for _, i := range g.members {
			if p.Cands[i].Benefit <= 0 {
				continue
			}
			ok := true
			for _, j := range chosen {
				if p.Cands[i].overlaps(&p.Cands[j]) {
					ok = false
					break
				}
			}
			if ok {
				chosen = append(chosen, i)
				added = true
			}
		}
		if added {
			remaining -= p.GroupBytes[gid]
		}
	}
	sort.Ints(chosen)
	return Result{Chosen: chosen, Value: p.objective(chosen)}
}

func bytesOr1(b float64) float64 {
	if b < 1 {
		return 1
	}
	return b
}
