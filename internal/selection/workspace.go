package selection

import "sort"

// Workspace holds every scratch structure the selection algorithms need, so
// a host re-optimizing every interval can run them allocation-free once the
// buffers are warm. The zero value is ready to use.
//
// Contract: a Result returned by a Workspace method aliases the workspace's
// buffers and is valid only until the next call on the same Workspace.
type Workspace struct {
	// Shared result buffers.
	chosen []int // best/selected set under construction
	cur    []int // Exhaustive's working subset
	exBest float64

	// OptimalNoSharing forest-DP scratch.
	byPipe    [][]int
	parent    []int
	best      []float64
	childSum  []float64
	pick      [][]int
	childPick [][]int

	// Greedy covering scratch (see greedy.go).
	gItems    []gItem
	gGroups   []gGroup
	gGroupIdx []int
	gCovered  []bool
	gPipeOff  []int
	gLive     []gLive
	gBestSet  []int
	gChosen   []int
	gOut      []int
	groupSum  []float64
}

// Select chooses the algorithm the way the implementation described in
// Section 4.4 does: the optimal forest DP when no candidate caches are
// shared; otherwise exhaustive search while 2^m stays cheap (m ≤
// exhaustiveLimit), falling back to the greedy approximation beyond that.
func (w *Workspace) Select(p *Problem) Result {
	if !p.hasSharing() {
		return w.OptimalNoSharing(p)
	}
	if len(p.Cands) <= exhaustiveLimit {
		return w.Exhaustive(p)
	}
	return w.Greedy(p)
}

// OptimalNoSharing solves instances whose groups are all singletons
// optimally in O(m) per pipeline (Theorem 4.1): candidates within a
// pipeline form a containment forest, and each subtree's optimum is the
// better of its root's net benefit and the sum of its children's optima.
// With sharing present the result is still a feasible solution but carries
// no optimality guarantee (each shared group's cost is charged to every
// member).
func (w *Workspace) OptimalNoSharing(p *Problem) Result {
	nPipes := len(p.OpCosts)
	for _, c := range p.Cands {
		if c.Pipeline+1 > nPipes {
			nPipes = c.Pipeline + 1
		}
	}
	w.byPipe = growSliceOfInts(w.byPipe, nPipes)
	for i, c := range p.Cands {
		w.byPipe[c.Pipeline] = append(w.byPipe[c.Pipeline], i)
	}
	chosen := w.chosen[:0]
	for pi := 0; pi < nPipes; pi++ {
		chosen = w.optimalPipeline(p, w.byPipe[pi], chosen)
	}
	w.chosen = chosen
	sort.Ints(chosen)
	return Result{Chosen: chosen, Value: p.objective(chosen)}
}

// optimalPipeline runs the forest DP over one pipeline's candidates,
// appending its picks to out.
func (w *Workspace) optimalPipeline(p *Problem, idxs []int, out []int) []int {
	// Sort by span length ascending so parents come after children
	// (insertion sort: tiny inputs, stable, and no per-call closure).
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && p.Cands[idxs[j]].ops() < p.Cands[idxs[j-1]].ops(); j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	m := len(idxs)
	w.parent = growInts(w.parent, m)
	w.best = growFloats(w.best, m)
	w.childSum = growFloats(w.childSum, m)
	w.pick = growSliceOfInts(w.pick, m)
	w.childPick = growSliceOfInts(w.childPick, m)
	// parent[i] = position in idxs of the smallest strict superset.
	for i := 0; i < m; i++ {
		w.parent[i] = -1
		w.best[i] = 0
		w.childSum[i] = 0
		ci := &p.Cands[idxs[i]]
		for j := i + 1; j < m; j++ {
			cj := &p.Cands[idxs[j]]
			if cj.Start <= ci.Start && ci.End <= cj.End && cj.ops() > ci.ops() {
				w.parent[i] = j
				break
			}
		}
	}
	// best[i]: optimal value within i's subtree; pick[i]: chosen indexes.
	// pick[i] copies childPick[i] rather than aliasing it: with both slices
	// reused across calls, an alias would leave two logical slices sharing
	// one backing array on the next call.
	for i := 0; i < m; i++ {
		c := &p.Cands[idxs[i]]
		v := c.Benefit - p.GroupCosts[c.Group]
		if v > w.childSum[i] {
			w.best[i] = v
			w.pick[i] = append(w.pick[i][:0], idxs[i])
		} else {
			w.best[i] = w.childSum[i]
			w.pick[i] = append(w.pick[i][:0], w.childPick[i]...)
		}
		if w.best[i] < 0 {
			w.best[i] = 0
			w.pick[i] = w.pick[i][:0]
		}
		if pr := w.parent[i]; pr != -1 {
			w.childSum[pr] += w.best[i]
			w.childPick[pr] = append(w.childPick[pr], w.pick[i]...)
		}
	}
	for i := 0; i < m; i++ {
		if w.parent[i] == -1 {
			out = append(out, w.pick[i]...)
		}
	}
	return out
}

// Exhaustive enumerates every nonoverlapping candidate subset and returns
// the best; exact for any instance, exponential in m.
func (w *Workspace) Exhaustive(p *Problem) Result {
	w.exBest = 0
	w.chosen = w.chosen[:0]
	w.cur = w.cur[:0]
	w.exhaust(p, 0)
	sort.Ints(w.chosen)
	return Result{Chosen: w.chosen, Value: w.exBest}
}

// exhaust recurses over include/exclude decisions for candidate i (a method
// rather than a closure so warm calls allocate nothing).
func (w *Workspace) exhaust(p *Problem, i int) {
	if i == len(p.Cands) {
		if v := p.objective(w.cur); v > w.exBest {
			w.exBest = v
			w.chosen = append(w.chosen[:0], w.cur...)
		}
		return
	}
	// Skip candidate i.
	w.exhaust(p, i+1)
	// Take candidate i if compatible.
	for _, j := range w.cur {
		if p.Cands[i].overlaps(&p.Cands[j]) {
			return
		}
	}
	w.cur = append(w.cur, i)
	w.exhaust(p, i+1)
	w.cur = w.cur[:len(w.cur)-1]
}

// growInts returns s with length n, reusing its array when it fits.
// Contents are unspecified; callers initialize.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats is growInts for float64 slices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBools returns s with length n and every element false.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// growSliceOfInts returns s with length n, each element truncated to length
// zero with its capacity kept.
func growSliceOfInts(s [][]int, n int) [][]int {
	if cap(s) < n {
		ns := make([][]int, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
