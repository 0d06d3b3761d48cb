package xjoin

import (
	"math/rand"
	"testing"

	"acache/internal/cost"
	"acache/internal/oracle"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

func threeWay(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A"),
			tuple.RelationSchema(1, "A", "B"),
			tuple.RelationSchema(2, "B"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 1, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
		},
	)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

func fourWayClique(t *testing.T) *query.Query {
	t.Helper()
	schemas := make([]*tuple.Schema, 4)
	var preds []query.Pred
	for i := 0; i < 4; i++ {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: 0, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	q, err := query.New(schemas, preds)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

func randomUpdates(rng *rand.Rand, q *query.Query, count int, domain int64) []stream.Update {
	live := make([][]tuple.Tuple, q.N())
	var ups []stream.Update
	for len(ups) < count {
		rel := rng.Intn(q.N())
		if len(live[rel]) > 3 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live[rel]))
			tp := live[rel][i]
			live[rel] = append(live[rel][:i:i], live[rel][i+1:]...)
			ups = append(ups, stream.Update{Op: stream.Delete, Rel: rel, Tuple: tp})
			continue
		}
		tp := make(tuple.Tuple, q.Schema(rel).Len())
		for c := range tp {
			tp[c] = rng.Int63n(domain)
		}
		live[rel] = append(live[rel], tp)
		ups = append(ups, stream.Update{Op: stream.Insert, Rel: rel, Tuple: tp})
	}
	return ups
}

func TestEnumerateCounts(t *testing.T) {
	// (2n−3)!! unordered binary trees: n=2 → 1, n=3 → 3, n=4 → 15.
	for _, tc := range []struct{ n, want int }{{2, 1}, {3, 3}, {4, 15}} {
		rels := make([]int, tc.n)
		for i := range rels {
			rels[i] = i
		}
		if got := len(Enumerate(rels)); got != tc.want {
			t.Fatalf("Enumerate(%d rels) = %d trees, want %d", tc.n, got, tc.want)
		}
	}
}

// leftDeep builds the left-deep tree joining rels in the given order —
// Figure 1(b)'s plan shape.
func leftDeep(rels ...int) *Tree {
	t := &Tree{Rel: rels[0]}
	for _, r := range rels[1:] {
		t = &Tree{Left: t, Right: &Tree{Rel: r}}
	}
	return t
}

func TestLeftDeepShape(t *testing.T) {
	tr := leftDeep(0, 1, 2)
	if tr.String() != "((R1 ⋈ R2) ⋈ R3)" {
		t.Fatalf("tree = %s", tr.String())
	}
}

func TestXJoinMatchesOracleAllTrees3Way(t *testing.T) {
	q := threeWay(t)
	for _, tr := range Enumerate([]int{0, 1, 2}) {
		meter := &cost.Meter{}
		x := New(q, tr, meter)
		o := oracle.New(q)
		rng := rand.New(rand.NewSource(21))
		for seq, u := range randomUpdates(rng, q, 500, 5) {
			u.Seq = uint64(seq)
			res := x.Process(u)
			want := o.Process(u)
			if res.Outputs != len(want) {
				t.Fatalf("tree %s update %d %v: got %d outputs, oracle %d",
					tr, seq, u, res.Outputs, len(want))
			}
		}
	}
}

func TestXJoinMatchesOracle4WayBushy(t *testing.T) {
	q := fourWayClique(t)
	// A bushy tree: (R1 ⋈ R2) ⋈ (R3 ⋈ R4).
	tr := &Tree{
		Left:  &Tree{Left: &Tree{Rel: 0}, Right: &Tree{Rel: 1}},
		Right: &Tree{Left: &Tree{Rel: 2}, Right: &Tree{Rel: 3}},
	}
	meter := &cost.Meter{}
	x := New(q, tr, meter)
	o := oracle.New(q)
	rng := rand.New(rand.NewSource(22))
	for seq, u := range randomUpdates(rng, q, 600, 4) {
		u.Seq = uint64(seq)
		res := x.Process(u)
		want := o.Process(u)
		if res.Outputs != len(want) {
			t.Fatalf("update %d %v: got %d outputs, oracle %d", seq, u, res.Outputs, len(want))
		}
	}
}

func TestXJoinMemoryAccounting(t *testing.T) {
	q := threeWay(t)
	tr := leftDeep(0, 1, 2)
	meter := &cost.Meter{}
	x := New(q, tr, meter)
	if x.MemoryBytes() != 0 {
		t.Fatalf("fresh XJoin memory = %d, want 0", x.MemoryBytes())
	}
	// Insert a joining pair: the R1⋈R2 materialization holds one composite.
	x.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{1}})
	x.Process(stream.Update{Op: stream.Insert, Rel: 1, Tuple: tuple.Tuple{1, 9}})
	m := x.MemoryBytes()
	if m <= 0 {
		t.Fatalf("memory after materialization = %d, want > 0", m)
	}
	// Deleting either side empties the materialization again.
	x.Process(stream.Update{Op: stream.Delete, Rel: 1, Tuple: tuple.Tuple{1, 9}})
	if x.MemoryBytes() != 0 {
		t.Fatalf("memory after delete = %d, want 0", x.MemoryBytes())
	}
}

func TestXJoinWindowChurnKeepsMaterializationsExact(t *testing.T) {
	// After arbitrary churn, each internal materialization must equal the
	// oracle's join of its subtree.
	q := fourWayClique(t)
	tr := &Tree{
		Left:  &Tree{Left: &Tree{Rel: 0}, Right: &Tree{Rel: 1}},
		Right: &Tree{Left: &Tree{Rel: 2}, Right: &Tree{Rel: 3}},
	}
	meter := &cost.Meter{}
	x := New(q, tr, meter)
	o := oracle.New(q)
	rng := rand.New(rand.NewSource(23))
	for seq, u := range randomUpdates(rng, q, 400, 4) {
		u.Seq = uint64(seq)
		x.Process(u)
		o.Process(u)
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.Leaf() {
			return
		}
		if n.m != nil {
			want := len(o.SegmentJoin(n.rels))
			if n.m.count != want {
				t.Fatalf("node %s materialization holds %d tuples, oracle %d",
					n.tree, n.m.count, want)
			}
		}
		walk(n.left)
		walk(n.right)
	}
	walk(x.root)
}
