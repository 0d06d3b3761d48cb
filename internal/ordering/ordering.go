// Package ordering builds the MJoin pipeline orderings A-Caching runs on top
// of (Section 4's modular decomposition, step 1). The paper takes them from
// A-Greedy [5]; here they are fixed when the engine is built, from the join
// graph alone, so that no pipeline ever reorders at run time and no cache is
// ever dropped for a reorder (Section 4.5 step 5). "Optimizing Multiple
// Multi-Way Stream Joins" derives probe orders the same way.
package ordering

import "acache/internal/query"

// FromJoinGraph builds the starting ordering from q's join graph: at each
// position of each pipeline it takes the lowest-index remaining relation
// that shares an attribute equivalence class with the prefix (the
// pipeline's own relation included), so no step is a cross product. It
// falls back to the lowest remaining index only when no remaining relation
// qualifies, which a connected query never reaches. Whenever the ascending
// order of a pipeline is already connected this way — every hub-first or
// single-class query — the pipeline equals InitialOrdering's.
func FromJoinGraph(q *query.Query) [][]int {
	n := q.N()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for c := 0; c < q.NumClasses(); c++ {
		members := q.ClassAttrs(c)
		for _, a := range members {
			for _, b := range members {
				adj[a.Rel][b.Rel] = true
			}
		}
	}
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		in := make([]bool, n)
		in[i] = true
		for len(out[i]) < n-1 {
			pick, fallback := -1, -1
			for r := 0; r < n && pick < 0; r++ {
				if in[r] {
					continue
				}
				if fallback < 0 {
					fallback = r
				}
				for p := 0; p < n; p++ {
					if in[p] && adj[p][r] {
						pick = r
						break
					}
				}
			}
			if pick < 0 {
				pick = fallback
			}
			in[pick] = true
			out[i] = append(out[i], pick)
		}
	}
	return out
}

// InitialOrdering builds the ascending-index ordering: each pipeline joins
// the remaining relations in index order, whatever the join graph says.
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
