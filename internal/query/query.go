// Package query models the continuous n-way equijoin: relation schemas plus
// equality predicates, closed under transitivity into attribute equivalence
// classes.
//
// The paper assumes equijoins R_i.attr_j = R_k.attr_l (Section 3.1) and its
// shared-cache definition (Example 4.2) treats transitively equated
// attributes as one join attribute — e.g. the n-way join on A has a single
// join attribute A even when predicates are written as a chain. We therefore
// canonicalize predicates into equivalence classes: a join operator joining a
// new relation to a pipeline prefix enforces, for every class shared between
// them, equality on that class's value. This guarantees that within any
// composite tuple all attributes of one class carry the same value, which is
// what makes cache keys well-defined and shareable across pipelines.
package query

import (
	"fmt"
	"sort"

	"acache/internal/tuple"
)

// Pred is an equality predicate between two base-relation attributes.
type Pred struct {
	Left, Right tuple.Attr
}

func (p Pred) String() string { return fmt.Sprintf("%v = %v", p.Left, p.Right) }

// CmpOp is a non-equality comparison operator for theta predicates.
type CmpOp int

// Comparison operators. Equality is not among them: equalities form the
// attribute equivalence classes and drive hash indexes and cache keys;
// theta predicates are residual filters.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Ne
)

func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Ne:
		return "!="
	default:
		return "?"
	}
}

// Eval applies the comparison to two values.
func (op CmpOp) Eval(a, b tuple.Value) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Ne:
		return a != b
	default:
		return false
	}
}

// ThetaPred is a non-equality join predicate between attributes of two
// different relations — an extension beyond the paper's equijoin setting
// (Section 3.1 assumes equijoins "for clarity of presentation"). Theta
// predicates are evaluated as residual filters by the join operators as
// soon as both sides are present in a composite tuple; they form no cache
// keys and candidate caches whose probe would bypass one are excluded by
// the planner.
type ThetaPred struct {
	Left  tuple.Attr
	Op    CmpOp
	Right tuple.Attr
}

func (p ThetaPred) String() string { return fmt.Sprintf("%v %v %v", p.Left, p.Op, p.Right) }

// Query is an n-way equijoin over windowed relations, optionally carrying
// residual theta predicates.
type Query struct {
	schemas []*tuple.Schema
	thetas  []ThetaPred

	classOf    map[tuple.Attr]int
	classAttrs [][]tuple.Attr // class id -> member attributes, sorted
}

// New validates the schemas and predicates and computes attribute
// equivalence classes. Every predicate attribute must exist in its relation's
// schema, no class may hold two attributes of one relation (a self-join
// predicate, whether written directly or implied through another relation),
// and every relation must be connected to the rest of the join graph
// (the paper's plans never contain cross products by construction; the
// executor still supports degenerate classes via scans, but an entirely
// disconnected relation is almost always a specification bug).
func New(schemas []*tuple.Schema, preds []Pred) (*Query, error) {
	if len(schemas) < 2 {
		return nil, fmt.Errorf("query: need at least 2 relations, got %d", len(schemas))
	}
	q := &Query{schemas: schemas, classOf: make(map[tuple.Attr]int)}

	// Union-find over predicate attributes.
	parent := make(map[tuple.Attr]tuple.Attr)
	var find func(a tuple.Attr) tuple.Attr
	find = func(a tuple.Attr) tuple.Attr {
		if parent[a] != a {
			parent[a] = find(parent[a])
		}
		return parent[a]
	}
	add := func(a tuple.Attr) error {
		if a.Rel < 0 || a.Rel >= len(schemas) {
			return fmt.Errorf("query: predicate attribute %v references unknown relation", a)
		}
		if _, ok := schemas[a.Rel].ColOf(a); !ok {
			return fmt.Errorf("query: predicate attribute %v not in schema %v", a, schemas[a.Rel])
		}
		if _, ok := parent[a]; !ok {
			parent[a] = a
		}
		return nil
	}
	for _, p := range preds {
		if err := add(p.Left); err != nil {
			return nil, err
		}
		if err := add(p.Right); err != nil {
			return nil, err
		}
		if p.Left.Rel == p.Right.Rel {
			return nil, fmt.Errorf("query: self-join predicate %v not supported", p)
		}
		ra, rb := find(p.Left), find(p.Right)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Assign dense class ids in a canonical (sorted-root) order so class ids
	// are stable across runs.
	roots := make(map[tuple.Attr][]tuple.Attr)
	for a := range parent {
		r := find(a)
		roots[r] = append(roots[r], a)
	}
	sortedRoots := make([]tuple.Attr, 0, len(roots))
	for r := range roots {
		sortedRoots = append(sortedRoots, r)
	}
	sort.Slice(sortedRoots, func(i, j int) bool { return attrLess(sortedRoots[i], sortedRoots[j]) })
	for _, r := range sortedRoots {
		members := roots[r]
		sort.Slice(members, func(i, j int) bool { return attrLess(members[i], members[j]) })
		for k := 1; k < len(members); k++ {
			if members[k].Rel == members[k-1].Rel {
				return nil, fmt.Errorf("query: predicates equate %v and %v, a self-join predicate, not supported", members[k-1], members[k])
			}
		}
		id := len(q.classAttrs)
		q.classAttrs = append(q.classAttrs, members)
		for _, a := range members {
			q.classOf[a] = id
		}
	}

	// Connectivity check over the join graph induced by classes.
	if err := q.checkConnected(); err != nil {
		return nil, err
	}
	return q, nil
}

// NewWithThetas builds a query carrying residual theta predicates alongside
// the equijoins. Every theta attribute must exist in its relation's schema
// and the two sides must name different relations; the equijoin graph alone
// must still connect every relation (thetas are filters, not join paths —
// a theta-only connection would force cross products).
func NewWithThetas(schemas []*tuple.Schema, preds []Pred, thetas []ThetaPred) (*Query, error) {
	q, err := New(schemas, preds)
	if err != nil {
		return nil, err
	}
	for _, t := range thetas {
		for _, a := range []tuple.Attr{t.Left, t.Right} {
			if a.Rel < 0 || a.Rel >= len(schemas) {
				return nil, fmt.Errorf("query: theta attribute %v references unknown relation", a)
			}
			if _, ok := schemas[a.Rel].ColOf(a); !ok {
				return nil, fmt.Errorf("query: theta attribute %v not in schema %v", a, schemas[a.Rel])
			}
		}
		if t.Left.Rel == t.Right.Rel {
			return nil, fmt.Errorf("query: theta predicate %v must span two relations", t)
		}
	}
	q.thetas = append([]ThetaPred(nil), thetas...)
	return q, nil
}

// Thetas returns the residual theta predicates.
func (q *Query) Thetas() []ThetaPred { return append([]ThetaPred(nil), q.thetas...) }

// ThetasBetween returns the theta predicates with one side in setA and the
// other in setB.
func (q *Query) ThetasBetween(setA, setB []int) []ThetaPred {
	inA, inB := make(map[int]bool), make(map[int]bool)
	for _, r := range setA {
		inA[r] = true
	}
	for _, r := range setB {
		inB[r] = true
	}
	var out []ThetaPred
	for _, t := range q.thetas {
		if (inA[t.Left.Rel] && inB[t.Right.Rel]) || (inB[t.Left.Rel] && inA[t.Right.Rel]) {
			out = append(out, t)
		}
	}
	return out
}

func attrLess(a, b tuple.Attr) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Name < b.Name
}

func (q *Query) checkConnected() error {
	n := len(q.schemas)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, members := range q.classAttrs {
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				adj[members[x].Rel][members[y].Rel] = true
				adj[members[y].Rel][members[x].Rel] = true
			}
		}
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := 0; w < n; w++ {
			if adj[v][w] && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("query: relation R%d is disconnected from the join graph", i+1)
		}
	}
	return nil
}

// N returns the number of joining relations.
func (q *Query) N() int { return len(q.schemas) }

// Schema returns relation rel's schema.
func (q *Query) Schema(rel int) *tuple.Schema { return q.schemas[rel] }

// NumClasses returns the number of attribute equivalence classes.
func (q *Query) NumClasses() int { return len(q.classAttrs) }

// ClassOf returns the equivalence class of attribute a, or ok=false when a
// participates in no predicate.
func (q *Query) ClassOf(a tuple.Attr) (int, bool) {
	c, ok := q.classOf[a]
	return c, ok
}

// ClassAttrs returns the member attributes of class c, sorted canonically.
func (q *Query) ClassAttrs(c int) []tuple.Attr {
	return append([]tuple.Attr(nil), q.classAttrs[c]...)
}

// ClassAttrsOf returns relation rel's attribute names in class c, sorted.
func (q *Query) ClassAttrsOf(rel, c int) []string {
	var out []string
	for _, a := range q.classAttrs[c] {
		if a.Rel == rel {
			out = append(out, a.Name)
		}
	}
	sort.Strings(out)
	return out
}

// SharedClasses returns the sorted class ids shared between any relation in
// setA and any relation in setB. These are the join attributes the executor
// enforces when joining across the two sets, and — for a cache whose prefix
// is setA and segment is setB — the cache key K_ijk (Section 3.2).
func (q *Query) SharedClasses(setA, setB []int) []int {
	inA, inB := make(map[int]bool), make(map[int]bool)
	for _, r := range setA {
		inA[r] = true
	}
	for _, r := range setB {
		inB[r] = true
	}
	var out []int
	for c, members := range q.classAttrs {
		hasA, hasB := false, false
		for _, a := range members {
			if inA[a.Rel] {
				hasA = true
			}
			if inB[a.Rel] {
				hasB = true
			}
		}
		if hasA && hasB {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// RepresentativeCols returns, for each class in classes, the column in schema
// s holding that class's value (any member attribute present in s — they all
// carry equal values inside a valid composite tuple). It panics if a class
// has no attribute in s; callers only ask for classes they know are present.
func (q *Query) RepresentativeCols(s *tuple.Schema, classes []int) []int {
	cols := make([]int, len(classes))
	for i, c := range classes {
		found := false
		for _, a := range q.classAttrs[c] {
			if col, ok := s.ColOf(a); ok {
				cols[i] = col
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("query: class %d has no attribute in schema %v", c, s))
		}
	}
	return cols
}
