package ordering

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"acache/internal/query"
	"acache/internal/tuple"
)

func TestInitialOrdering(t *testing.T) {
	ord := InitialOrdering(3)
	want := [][]int{{1, 2}, {0, 2}, {0, 1}}
	for i := range want {
		for j := range want[i] {
			if ord[i][j] != want[i][j] {
				t.Fatalf("InitialOrdering = %v", ord)
			}
		}
	}
}

// rel is one relation declaration for mkQuery: a name and its attributes.
type rel struct {
	name  string
	attrs []string
}

// mkQuery declares rels in the given order and equates every pair of
// "Rel.Attr" references in joins.
func mkQuery(t *testing.T, rels []rel, joins [][2]string) *query.Query {
	t.Helper()
	idx := make(map[string]int)
	schemas := make([]*tuple.Schema, len(rels))
	for i, r := range rels {
		idx[r.name] = i
		schemas[i] = tuple.RelationSchema(i, r.attrs...)
	}
	attr := func(ref string) tuple.Attr {
		name, a, _ := strings.Cut(ref, ".")
		return tuple.Attr{Rel: idx[name], Name: a}
	}
	var preds []query.Pred
	for _, j := range joins {
		preds = append(preds, query.Pred{Left: attr(j[0]), Right: attr(j[1])})
	}
	q, err := query.New(schemas, preds)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

// connected reports whether every step of pipeline pipe shares an
// equivalence class with the relations before it (the root included).
func connected(q *query.Query, root int, pipe []int) bool {
	prefix := []int{root}
	for _, r := range pipe {
		if len(q.SharedClasses(prefix, []int{r})) == 0 {
			return false
		}
		prefix = append(prefix, r)
	}
	return true
}

func permutations(xs []rel) [][]rel {
	if len(xs) <= 1 {
		return [][]rel{slices.Clone(xs)}
	}
	var out [][]rel
	for i := range xs {
		rest := append(slices.Clone(xs[:i]), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]rel{xs[i]}, p...))
		}
	}
	return out
}

// TestFromJoinGraph checks, on every declaration order of the chain
// R(A) ⋈ S(A,B) ⋈ T(B) and on the chain, single-class and hub shapes the
// figures and the benchmark workloads use, that every pipeline step of the
// join-graph ordering shares a class with its prefix, and that each
// pipeline equals InitialOrdering's whenever that one is already connected.
// On the hub-first and single-class shapes that is every pipeline, which
// pins the plans those workloads and figures run.
func TestFromJoinGraph(t *testing.T) {
	type shape struct {
		name string
		q    *query.Query
		// same demands the whole ordering equal InitialOrdering.
		same bool
	}
	var shapes []shape
	chain := []rel{{"R", []string{"A"}}, {"S", []string{"A", "B"}}, {"T", []string{"B"}}}
	for _, p := range permutations(chain) {
		name := "chain3/"
		for _, r := range p {
			name += r.name
		}
		shapes = append(shapes, shape{name: name, q: mkQuery(t, p, [][2]string{{"R.A", "S.A"}, {"S.B", "T.B"}}), same: p[0].name == "S"})
	}
	// A 5-way chain on distinct attributes, declared end to end and with the
	// ends first.
	var chain5 []rel
	var links [][2]string
	for i := 0; i < 5; i++ {
		chain5 = append(chain5, rel{fmt.Sprintf("C%d", i), []string{"L", "R"}})
		if i > 0 {
			links = append(links, [2]string{fmt.Sprintf("C%d.R", i-1), fmt.Sprintf("C%d.L", i)})
		}
	}
	shapes = append(shapes,
		shape{name: "chain5", q: mkQuery(t, chain5, links)},
		shape{name: "chain5/ends-first", q: mkQuery(t, []rel{chain5[0], chain5[4], chain5[2], chain5[1], chain5[3]}, links)})
	// nWayQuery(4): R1(A) ⋈_A … ⋈_A R4(A), predicates written as a chain.
	var nway4 []rel
	var eq [][2]string
	for i := 0; i < 4; i++ {
		nway4 = append(nway4, rel{fmt.Sprintf("R%d", i+1), []string{"A"}})
		if i > 0 {
			eq = append(eq, [2]string{fmt.Sprintf("R%d.A", i), fmt.Sprintf("R%d.A", i+1)})
		}
	}
	shapes = append(shapes, shape{name: "nWayQuery(4)", q: mkQuery(t, nway4, eq), same: true})
	// star3_scan and star3_hit: S(A,B) declared first, then R(A), T(B).
	shapes = append(shapes, shape{name: "star3", q: mkQuery(t,
		[]rel{{"S", []string{"A", "B"}}, {"R", []string{"A"}}, {"T", []string{"B"}}},
		[][2]string{{"R.A", "S.A"}, {"S.B", "T.B"}}), same: true})
	// nway5_mjoin and nway7_drift: hub R0 with every Ri.A = R0.A.
	for _, n := range []int{5, 7} {
		var hub []rel
		var spokes [][2]string
		for i := 0; i < n; i++ {
			hub = append(hub, rel{fmt.Sprintf("H%d", i), []string{"A"}})
			if i > 0 {
				spokes = append(spokes, [2]string{"H0.A", fmt.Sprintf("H%d.A", i)})
			}
		}
		shapes = append(shapes, shape{name: fmt.Sprintf("nway%d", n), q: mkQuery(t, hub, spokes), same: true})
	}

	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			got := FromJoinGraph(s.q)
			init := InitialOrdering(s.q.N())
			for i, pipe := range got {
				if !connected(s.q, i, pipe) {
					t.Errorf("pipeline %d = %v has a cross-product step", i, pipe)
				}
				if connected(s.q, i, init[i]) && !slices.Equal(pipe, init[i]) {
					t.Errorf("pipeline %d = %v, want the already connected %v", i, pipe, init[i])
				}
				if s.same && !slices.Equal(pipe, init[i]) {
					t.Errorf("pipeline %d = %v, want InitialOrdering's %v", i, pipe, init[i])
				}
			}
		})
	}
}
