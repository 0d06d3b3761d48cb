package relation

import (
	"math/rand"
	"sort"
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

// Differential property test: the slab/open-addressing Store against a
// naive slice reference model, under randomized interleavings of inserts
// (with duplicates), deletes (present and absent, of held tuples and of
// copies), probes, counts, scans, and index creation mid-stream.

// refStore is the obviously-correct model: a flat slice in insertion order of
// the very tuples the store was given. Delete follows the Store's contract:
// the caller's own tuple if held, else the oldest equal one.
type refStore struct {
	tuples []tuple.Tuple
}

// sameStorage reports whether a and b are the same tuple, not merely equal:
// what the store's slab compares, a reference to the first value.
func sameStorage(a, b tuple.Tuple) bool { return tuple.RefOf(a) == tuple.RefOf(b) }

func (r *refStore) insert(t tuple.Tuple) {
	r.tuples = append(r.tuples, t)
}

func (r *refStore) delete(t tuple.Tuple) bool {
	at := -1
	for i, u := range r.tuples {
		if sameStorage(u, t) {
			at = i
			break
		}
		if at < 0 && u.Equal(t) {
			at = i
		}
	}
	if at < 0 {
		return false
	}
	r.tuples = append(r.tuples[:at:at], r.tuples[at+1:]...)
	return true
}

func (r *refStore) countOf(t tuple.Tuple) int {
	n := 0
	for _, u := range r.tuples {
		if u.Equal(t) {
			n++
		}
	}
	return n
}

// probe returns, in insertion order, the tuples matching vals on cols.
func (r *refStore) probe(cols []int, vals []tuple.Value) []tuple.Tuple {
	var out []tuple.Tuple
	for _, u := range r.tuples {
		match := true
		for i, c := range cols {
			if u[c] != vals[i] {
				match = false
				break
			}
		}
		if match {
			out = append(out, u)
		}
	}
	return out
}

func sortedKeys(ts []tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(tuple.Encode(t))
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d tuples, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset mismatch at %d", label, i)
		}
	}
}

func sameOrdered(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d (got %v want %v)", label, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: order mismatch at %d: got %v want %v", label, i, got[i], want[i])
		}
	}
}

// sameStorageSet checks that got and want are the same tuples — the same
// backing arrays, not merely equal values — in any order.
func sameStorageSet(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	held := make(map[*tuple.Value]bool, len(want))
	for _, u := range want {
		held[&u[0]] = true
	}
	for _, u := range got {
		if !held[&u[0]] {
			t.Fatalf("%s: holds a %v that is not the model's", label, u)
		}
		delete(held, &u[0])
	}
}

// TestStoreDifferential runs the op mix against every shape of index set a
// delete can meet. Indexes named steady are created before any data and live
// forever: their chains are maintained purely incrementally, so probe order
// must equal insertion order exactly — the contract the executor's
// compile-time indexes rely on — and with a steady index first, "the oldest
// equal tuple" is exact too, so store and model must hold the same storage.
// The flip sets appear mid-stream: their back-fill indexes the slab (id
// order, deterministic but not insertion order), so they are held to
// multiset equality, probe-path agreement, and determinism — and with no
// steady index the store's first index, the one deletes resolve through,
// is built under a populated store, and missing altogether before that.
func TestStoreDifferential(t *testing.T) {
	flips := [][]string{{"A"}, {"B", "C"}, {"A", "C"}}
	for _, tc := range []struct {
		name         string
		steady, flip [][]string
	}{
		{"noIndex", nil, nil},
		{"oneIndex", [][]string{{"B"}}, nil},
		{"twoIndexes", [][]string{{"B"}, {"A", "C"}}, nil},
		{"steadyFirst", [][]string{{"B"}}, flips},
		{"flippingFirst", nil, flips},
	} {
		t.Run(tc.name, func(t *testing.T) { storeDifferential(t, tc.steady, tc.flip) })
	}
}

func storeDifferential(t *testing.T, steadySets, indexSets [][]string) {
	const (
		steps  = 8_000
		domain = 4 // small domain → heavy duplication
	)
	attrs := []string{"A", "B", "C"}
	schema := tuple.RelationSchema(0, attrs...)
	s := NewStore(0, schema, &cost.Meter{})
	ref := &refStore{}
	rng := rand.New(rand.NewSource(7))

	randTuple := func() tuple.Tuple {
		out := make(tuple.Tuple, len(attrs))
		for i := range out {
			out[i] = int64(rng.Intn(domain))
		}
		return out
	}

	var steady []*HashIndex
	for _, set := range steadySets {
		steady = append(steady, s.CreateIndex(set...))
	}
	live := map[int]*HashIndex{}

	checkIndex := func(idx *HashIndex, ordered bool) {
		vals := make([]tuple.Value, len(idx.Cols()))
		for i := range vals {
			vals[i] = int64(rng.Intn(domain))
		}
		var got []tuple.Tuple
		s.ProbeEach(idx, vals, func(m tuple.Tuple) {
			got = append(got, m.Clone())
		})
		want := ref.probe(idx.Cols(), vals)
		if ordered {
			sameOrdered(t, "ProbeEach", got, want)
		} else {
			sameMultiset(t, "ProbeEach", got, want)
		}
		// The cold-path Probe must agree with the zero-copy path exactly.
		sameOrdered(t, "Probe vs ProbeEach", s.Probe(idx, tuple.KeyOfValues(vals)), got)
		// And a second pass must repeat the first: probes are read-only.
		var again []tuple.Tuple
		s.ProbeEach(idx, vals, func(m tuple.Tuple) {
			again = append(again, m.Clone())
		})
		sameOrdered(t, "ProbeEach determinism", again, got)
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 45: // insert (sometimes a guaranteed duplicate)
			u := randTuple()
			s.Insert(u)
			ref.insert(u)
		case op < 75:
			// Delete a random tuple, often absent; or a held tuple, as a
			// window does; or a copy of one, as an explicit delete does.
			u := randTuple()
			if kind := rng.Intn(3); kind > 0 && len(ref.tuples) > 0 {
				u = ref.tuples[rng.Intn(len(ref.tuples))]
				if kind == 2 {
					u = u.Clone()
				}
			}
			got, want := s.Delete(u), ref.delete(u)
			if got != want {
				t.Fatalf("step %d: Delete(%v) = %v, want %v", step, u, got, want)
			}
		case op < 85: // point lookups
			u := randTuple()
			if got, want := s.CountOf(u), ref.countOf(u); got != want {
				t.Fatalf("step %d: CountOf(%v) = %d, want %d", step, u, got, want)
			}
		case op < 90: // probe an always-live index: exact insertion order
			if len(steady) > 0 {
				checkIndex(steady[rng.Intn(len(steady))], true)
			}
		case op < 95: // probe a mid-stream index, if any
			for _, idx := range live {
				checkIndex(idx, false)
				break
			}
		default: // create a mid-stream index (idempotent once it exists)
			if len(indexSets) == 0 {
				break
			}
			which := rng.Intn(len(indexSets))
			idx := s.CreateIndex(indexSets[which]...)
			if prev, ok := live[which]; ok && prev != idx {
				t.Fatalf("step %d: CreateIndex(%v) built a second index", step, indexSets[which])
			}
			live[which] = idx
		}
		if s.Len() != len(ref.tuples) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref.tuples))
		}
		if len(steady) > 0 && step%500 == 0 {
			sameStorageSet(t, "All", s.All(), ref.tuples)
		}
	}

	// Final full-state checks: scan contents, All(), and every index.
	var scanned []tuple.Tuple
	s.Scan(func(u tuple.Tuple) bool {
		scanned = append(scanned, u.Clone())
		return true
	})
	sameMultiset(t, "Scan", scanned, ref.tuples)
	sameMultiset(t, "All", s.All(), ref.tuples)
	if len(steady) > 0 {
		sameStorageSet(t, "All", s.All(), ref.tuples)
	}
	for _, idx := range steady {
		for i := 0; i < 50; i++ {
			checkIndex(idx, true)
		}
	}
	for _, idx := range live {
		for i := 0; i < 50; i++ {
			checkIndex(idx, false)
		}
	}
}

// TestStoreDifferentialChurn drains the store repeatedly so slab ids recycle
// through the free list many times while an index stays live.
func TestStoreDifferentialChurn(t *testing.T) {
	schema := tuple.RelationSchema(0, "A", "B")
	s := NewStore(0, schema, &cost.Meter{})
	ref := &refStore{}
	idx := s.CreateIndex("A")
	rng := rand.New(rand.NewSource(11))

	for round := 0; round < 50; round++ {
		var ins []tuple.Tuple
		for i := 0; i < 40; i++ {
			u := tuple.Tuple{int64(rng.Intn(3)), int64(rng.Intn(5))}
			s.Insert(u)
			ref.insert(u)
			ins = append(ins, u)
		}
		rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
		for _, u := range ins {
			if !s.Delete(u) || !ref.delete(u) {
				t.Fatalf("round %d: delete of known-present %v failed", round, u)
			}
		}
		if s.Len() != 0 {
			t.Fatalf("round %d: store not drained: %d left", round, s.Len())
		}
		// Probe the empty store: every key must yield nothing.
		for a := int64(0); a < 3; a++ {
			s.ProbeEach(idx, []tuple.Value{a}, func(m tuple.Tuple) {
				t.Fatalf("round %d: probe of drained store returned %v", round, m)
			})
		}
	}
}
