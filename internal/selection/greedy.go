package selection

import (
	"math"
	"sort"
)

// gItem is one covering item of the greedy minimization form: a real
// candidate cache or an operator pseudo-cache (cand = −1).
type gItem struct {
	cand  int
	pipe  int
	start int
	end   int
	proc  float64
}

// gGroup is one sharing group of covering items; its cost is paid once.
type gGroup struct {
	cost  float64
	items []int
}

// gLive is a group item with its current uncovered-operator count and cost
// rate, rebuilt per greedy round.
type gLive struct {
	idx  int
	n    int
	rate float64
}

// Greedy is the Appendix-B greedy O(log n) approximation for instances with
// shared caches. It works on the minimization form: every operator must be
// covered exactly once, by a real cache or by itself (a zero-length cache of
// cost d_ij·c_ij and no group cost). Each round computes, for every sharing
// group, the cheapest cost rate D_r = (L_r + Σ_{c∈S} B_c) / (Σ_{c∈S} n_c)
// over prefix subsets S of the group's caches sorted by B_c/n_c (the claim
// in Appendix B shows a prefix is optimal), picks the best group, covers its
// operators, and repeats; overlapping choices are resolved afterwards by
// keeping the widest cache.
func (w *Workspace) Greedy(p *Problem) Result {
	// Build items and groups; group indexes are dense (0..len(GroupCosts)),
	// so the group lookup is a slice, not a map.
	w.gItems = w.gItems[:0]
	w.gGroups = w.gGroups[:0]
	w.gGroupIdx = growInts(w.gGroupIdx, len(p.GroupCosts))
	for i := range w.gGroupIdx {
		w.gGroupIdx[i] = -1
	}
	for i := range p.Cands {
		c := &p.Cands[i]
		proc := -c.Benefit
		for j := c.Start; j <= c.End; j++ {
			proc += p.OpCosts[c.Pipeline][j]
		}
		if proc < 0 {
			proc = 0
		}
		g := w.gGroupIdx[c.Group]
		if g < 0 {
			g = w.addGroup(p.GroupCosts[c.Group])
			w.gGroupIdx[c.Group] = g
		}
		w.gGroups[g].items = append(w.gGroups[g].items, len(w.gItems))
		w.gItems = append(w.gItems, gItem{cand: i, pipe: c.Pipeline, start: c.Start, end: c.End, proc: proc})
	}
	// Operator pseudo-caches: cover themselves, no group cost.
	for pipe, costs := range p.OpCosts {
		for pos, cost := range costs {
			g := w.addGroup(0)
			w.gGroups[g].items = append(w.gGroups[g].items, len(w.gItems))
			w.gItems = append(w.gItems, gItem{cand: -1, pipe: pipe, start: pos, end: pos, proc: cost})
		}
	}

	// Coverage as a flat bool array over (pipe, pos) with per-pipe offsets.
	w.gPipeOff = growInts(w.gPipeOff, len(p.OpCosts))
	totalOps := 0
	for i, costs := range p.OpCosts {
		w.gPipeOff[i] = totalOps
		totalOps += len(costs)
	}
	w.gCovered = growBools(w.gCovered, totalOps)
	coveredCount := 0

	w.gChosen = w.gChosen[:0]
	for coveredCount < totalOps {
		bestD := math.Inf(1)
		found := false
		for gi := range w.gGroups {
			g := &w.gGroups[gi]
			// Live items of this group with their current coverage.
			ls := w.gLive[:0]
			for _, ii := range g.items {
				if n := w.uncovered(&w.gItems[ii]); n > 0 {
					ls = append(ls, gLive{idx: ii, n: n, rate: w.gItems[ii].proc / float64(n)})
				}
			}
			w.gLive = ls
			if len(ls) == 0 {
				continue
			}
			// Insertion sort by rate: tiny inputs, no per-call closure.
			for i := 1; i < len(ls); i++ {
				for j := i; j > 0 && ls[j].rate < ls[j-1].rate; j-- {
					ls[j], ls[j-1] = ls[j-1], ls[j]
				}
			}
			sumB, sumN := g.cost, 0.0
			for k, l := range ls {
				sumB += w.gItems[l.idx].proc
				sumN += float64(l.n)
				if d := sumB / sumN; d < bestD {
					bestD = d
					found = true
					w.gBestSet = w.gBestSet[:0]
					for _, x := range ls[:k+1] {
						w.gBestSet = append(w.gBestSet, x.idx)
					}
				}
			}
		}
		if !found {
			break // nothing can cover the remainder (cannot happen: operators always can)
		}
		for _, ii := range w.gBestSet {
			it := &w.gItems[ii]
			base := w.gPipeOff[it.pipe]
			for j := it.start; j <= it.end; j++ {
				if !w.gCovered[base+j] {
					w.gCovered[base+j] = true
					coveredCount++
				}
			}
			if it.cand >= 0 {
				w.gChosen = append(w.gChosen, it.cand)
			}
		}
	}
	chosen := w.resolveOverlaps(p, w.gChosen)
	chosen = w.pruneNegative(p, chosen)
	sort.Ints(chosen)
	return Result{Chosen: chosen, Value: p.objective(chosen)}
}

// addGroup appends a group with the given cost, reusing a previously
// allocated slot (and its items capacity) when one exists.
func (w *Workspace) addGroup(cost float64) int {
	if len(w.gGroups) < cap(w.gGroups) {
		w.gGroups = w.gGroups[:len(w.gGroups)+1]
		g := &w.gGroups[len(w.gGroups)-1]
		g.cost = cost
		g.items = g.items[:0]
	} else {
		w.gGroups = append(w.gGroups, gGroup{cost: cost})
	}
	return len(w.gGroups) - 1
}

// uncovered counts the operators it still covers.
func (w *Workspace) uncovered(it *gItem) int {
	n := 0
	base := w.gPipeOff[it.pipe]
	for j := it.start; j <= it.end; j++ {
		if !w.gCovered[base+j] {
			n++
		}
	}
	return n
}

// resolveOverlaps keeps, among mutually overlapping chosen caches, the one
// covering the most operators (Appendix B), iterating until conflict-free.
// Sorts chosen in place; the result reuses a workspace buffer.
func (w *Workspace) resolveOverlaps(p *Problem, chosen []int) []int {
	sort.Slice(chosen, func(a, b int) bool {
		if oa, ob := p.Cands[chosen[a]].ops(), p.Cands[chosen[b]].ops(); oa != ob {
			return oa > ob
		}
		return chosen[a] < chosen[b]
	})
	out := w.gOut[:0]
	for _, i := range chosen {
		ok := true
		for _, j := range out {
			if i == j || p.Cands[i].overlaps(&p.Cands[j]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	w.gOut = out
	return out
}

// pruneNegative drops whole groups whose members' combined benefit does not
// pay for the group cost — the greedy covering can select caches that are
// cheaper than bare operators in the minimization form yet still carry
// negative net benefit relative to dropping them (operators then cover those
// positions for free in the maximization form). The result overwrites
// chosen's prefix (kept members preserve chosen order).
func (w *Workspace) pruneNegative(p *Problem, chosen []int) []int {
	w.groupSum = growFloats(w.groupSum, len(p.GroupCosts))
	for i := range w.groupSum {
		w.groupSum[i] = 0
	}
	for _, i := range chosen {
		if p.Cands[i].Benefit > 0 {
			w.groupSum[p.Cands[i].Group] += p.Cands[i].Benefit
		}
	}
	out := chosen[:0]
	for _, i := range chosen {
		g := p.Cands[i].Group
		if p.Cands[i].Benefit > 0 && w.groupSum[g] > p.GroupCosts[g] {
			out = append(out, i)
		}
	}
	return out
}

// resolveOverlaps and pruneNegative package-level wrappers for callers
// outside the workspace path (the randomized rounding pass).
func resolveOverlaps(p *Problem, chosen []int) []int {
	var w Workspace
	return w.resolveOverlaps(p, chosen)
}

func pruneNegative(p *Problem, chosen []int) []int {
	var w Workspace
	return w.pruneNegative(p, chosen)
}
