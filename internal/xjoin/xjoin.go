// Package xjoin implements the XJoin baseline [28] the paper compares
// against: a binary tree of two-way joins over the windowed relations, with
// a fully materialized join subresult at every internal node except the
// root. Updates propagate from the changed leaf to the root, probing the
// sibling subtree's materialization (or leaf store) at each ancestor and
// incrementally maintaining the materializations along the way.
package xjoin

import (
	"fmt"
	"sort"

	"acache/internal/cost"
	"acache/internal/query"
	"acache/internal/relation"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Tree is a binary join-tree shape: leaves are relation indexes.
type Tree struct {
	Rel         int // leaf relation; valid when Left == nil
	Left, Right *Tree
}

// Leaf reports whether the node is a leaf.
func (t *Tree) Leaf() bool { return t.Left == nil }

// Rels returns the relations under the node, sorted.
func (t *Tree) Rels() []int {
	var out []int
	var walk func(n *Tree)
	walk = func(n *Tree) {
		if n.Leaf() {
			out = append(out, n.Rel)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t)
	sort.Ints(out)
	return out
}

func (t *Tree) String() string {
	if t.Leaf() {
		return fmt.Sprintf("R%d", t.Rel+1)
	}
	return fmt.Sprintf("(%s ⋈ %s)", t.Left.String(), t.Right.String())
}

// Enumerate returns every binary tree shape over the given relation set
// ((2n−3)!! trees: 15 for n = 4). Trees that differ only by swapping a
// node's children are enumerated once (left subtree always holds the
// smallest relation of the node).
func Enumerate(rels []int) []*Tree {
	if len(rels) == 1 {
		return []*Tree{{Rel: rels[0]}}
	}
	var out []*Tree
	// Split rels into nonempty (left, right) with rels[0] ∈ left to avoid
	// mirror duplicates.
	n := len(rels)
	for mask := 0; mask < 1<<(n-1); mask++ {
		var left, right []int
		left = append(left, rels[0])
		for i := 1; i < n; i++ {
			if mask&(1<<(i-1)) != 0 {
				left = append(left, rels[i])
			} else {
				right = append(right, rels[i])
			}
		}
		if len(right) == 0 {
			continue
		}
		for _, l := range Enumerate(left) {
			for _, r := range Enumerate(right) {
				out = append(out, &Tree{Left: l, Right: r})
			}
		}
	}
	return out
}

// mat is a materialized join subresult: a multiset of composite tuples with
// one hash index keyed on the classes its parent joins on.
type mat struct {
	keyCols []int // parent-probe key columns; nil at the root
	buckets map[tuple.Key][]tuple.Tuple
	count   int
}

func (m *mat) insert(t tuple.Tuple, meter *cost.Meter) {
	if m.keyCols != nil {
		k := tuple.KeyOf(t, m.keyCols)
		m.buckets[k] = append(m.buckets[k], t)
		meter.Charge(cost.HashInsert)
	}
	m.count++
}

func (m *mat) remove(t tuple.Tuple, meter *cost.Meter) {
	if m.keyCols != nil {
		k := tuple.KeyOf(t, m.keyCols)
		b := m.buckets[k]
		for i := range b {
			if b[i].Equal(t) {
				b[i] = b[len(b)-1]
				b = b[:len(b)-1]
				break
			}
		}
		if len(b) == 0 {
			delete(m.buckets, k)
		} else {
			m.buckets[k] = b
		}
		meter.Charge(cost.HashInsert)
	}
	m.count--
}

func (m *mat) probe(k tuple.Key, meter *cost.Meter) []tuple.Tuple {
	meter.Charge(cost.IndexProbe)
	return m.buckets[k]
}

// bytes returns the materialization's accounted memory: the composite
// tuples at the paper's 32-byte leaf-tuple granularity plus bucket slots.
func (m *mat) bytes(nrels int) int {
	return m.count*nrels*relation.TupleBytes + len(m.buckets)*8
}

// node is a compiled tree node.
type node struct {
	tree        *Tree
	parent      *node
	left, right *node
	rels        []int
	schema      *tuple.Schema
	m           *mat // nil for leaves and for the root
	// join compilation for internal nodes: classes shared between the two
	// children, plus each side's key columns in its own schema.
	classes  []int
	leftKey  []int
	rightKey []int
	// leaf fields
	rel       int
	leafIndex []string // index attribute names on the relation store
}

// Result mirrors join.Result.
type Result struct {
	Outputs int
	Units   cost.Units
}

// XJoin executes one tree over its own relation stores.
type XJoin struct {
	q      *query.Query
	meter  *cost.Meter
	stores []*relation.Store
	root   *node
	leaves []*node // by relation index
}

// New compiles tree for q. Every internal node except the root materializes
// its subresult.
func New(q *query.Query, tree *Tree, meter *cost.Meter) *XJoin {
	x := &XJoin{q: q, meter: meter}
	x.stores = make([]*relation.Store, q.N())
	for i := 0; i < q.N(); i++ {
		x.stores[i] = relation.NewStore(i, q.Schema(i), meter)
	}
	x.leaves = make([]*node, q.N())
	x.root = x.compile(tree, nil)
	return x
}

func (x *XJoin) compile(t *Tree, parent *node) *node {
	n := &node{tree: t, parent: parent, rels: t.Rels()}
	if t.Leaf() {
		n.rel = t.Rel
		n.schema = x.q.Schema(t.Rel)
		x.leaves[t.Rel] = n
		return n
	}
	n.left = x.compile(t.Left, n)
	n.right = x.compile(t.Right, n)
	n.schema = n.left.schema.Concat(n.right.schema)
	n.classes = x.q.SharedClasses(n.left.rels, n.right.rels)
	n.leftKey = x.q.RepresentativeCols(n.left.schema, n.classes)
	n.rightKey = x.q.RepresentativeCols(n.right.schema, n.classes)
	// Index each child for probes from this node: leaves get store
	// indexes; internal children get their materialization keyed here.
	x.prepareChild(n.left, n.classes)
	x.prepareChild(n.right, n.classes)
	if parent != nil {
		pClasses := x.parentClasses(parent)
		n.m = &mat{
			keyCols: x.q.RepresentativeCols(n.schema, pClasses),
			buckets: make(map[tuple.Key][]tuple.Tuple),
		}
	}
	return n
}

// parentClasses returns the classes the parent joins its children on.
func (x *XJoin) parentClasses(parent *node) []int {
	return x.q.SharedClasses(parent.tree.Left.Rels(), parent.tree.Right.Rels())
}

func (x *XJoin) prepareChild(c *node, classes []int) {
	if c.Leaf() {
		var names []string
		for _, cl := range classes {
			names = append(names, x.q.ClassAttrsOf(c.rel, cl)...)
		}
		if len(names) > 0 {
			x.stores[c.rel].CreateIndex(names...)
			c.leafIndex = names
		}
		return
	}
	// Internal child: its materialization was keyed when compiled (the
	// parent's classes were computed there), nothing further needed.
}

// Leaf reports whether a node is a leaf (helper for node).
func (n *node) Leaf() bool { return n.tree.Leaf() }

// probeChild returns the child's tuples matching the given key values.
func (x *XJoin) probeChild(c *node, key tuple.Key, classes []int) []tuple.Tuple {
	if c.Leaf() {
		if c.leafIndex == nil {
			// Cross join at this node: scan everything.
			var out []tuple.Tuple
			x.stores[c.rel].Scan(func(t tuple.Tuple) bool {
				out = append(out, t)
				return true
			})
			return out
		}
		idx := x.stores[c.rel].Index(c.leafIndex...)
		// The store index key is ordered by sorted attribute names, each
		// attribute keyed by its class value. Rebuild the probe key in
		// that order.
		vals := key.Values()
		valOf := make(map[int]tuple.Value, len(classes))
		for i, cl := range classes {
			valOf[cl] = vals[i]
		}
		var probe []tuple.Value
		for _, col := range idx.Cols() {
			attr := x.q.Schema(c.rel).Col(col)
			cl, _ := x.q.ClassOf(attr)
			probe = append(probe, valOf[cl])
		}
		return x.stores[c.rel].Probe(idx, tuple.KeyOfValues(probe))
	}
	return c.m.probe(key, x.meter)
}

// Process runs one update through the tree and returns the number of result
// deltas emitted at the root.
func (x *XJoin) Process(u stream.Update) Result {
	sw := cost.NewStopwatch(x.meter)
	leaf := x.leaves[u.Rel]
	delta := []tuple.Tuple{u.Tuple}
	n := leaf
	for n.parent != nil {
		p := n.parent
		var sibling *node
		var myKey []int
		fromLeft := p.left == n
		if fromLeft {
			sibling = p.right
			myKey = p.leftKey
		} else {
			sibling = p.left
			myKey = p.rightKey
		}
		var next []tuple.Tuple
		for _, d := range delta {
			x.meter.ChargeN(cost.KeyExtract, len(myKey))
			k := tuple.KeyOf(d, myKey)
			for _, s := range x.probeChild(sibling, k, p.classes) {
				x.meter.Charge(cost.OutputTuple)
				if fromLeft {
					next = append(next, d.Concat(s))
				} else {
					next = append(next, s.Concat(d))
				}
			}
		}
		delta = next
		if p.m != nil {
			for _, d := range delta {
				if u.Op == stream.Insert {
					p.m.insert(d, x.meter)
				} else {
					p.m.remove(d, x.meter)
				}
			}
		}
		n = p
		if len(delta) == 0 {
			break
		}
	}
	if u.Op == stream.Insert {
		x.stores[u.Rel].Insert(u.Tuple)
	} else {
		x.stores[u.Rel].Delete(u.Tuple)
	}
	outputs := 0
	if n == x.root {
		outputs = len(delta)
	}
	return Result{Outputs: outputs, Units: sw.Elapsed()}
}

// MemoryBytes returns the total bytes of materialized join subresults — the
// quantity Figure 13's x-axis budgets.
func (x *XJoin) MemoryBytes() int {
	total := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n.Leaf() {
			return
		}
		if n.m != nil {
			total += n.m.bytes(len(n.rels))
		}
		walk(n.left)
		walk(n.right)
	}
	walk(x.root)
	return total
}

// Meter returns the cost meter all of this XJoin's work is charged to.
func (x *XJoin) Meter() *cost.Meter { return x.meter }
