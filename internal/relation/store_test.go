package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"acache/internal/cost"
	"acache/internal/stream"
	"acache/internal/tuple"
)

func newTestStore() (*Store, *cost.Meter) {
	m := &cost.Meter{}
	return NewStore(0, tuple.RelationSchema(0, "A", "B"), m), m
}

func TestInsertDeleteScan(t *testing.T) {
	s, _ := newTestStore()
	s.Insert(tuple.Tuple{1, 2})
	s.Insert(tuple.Tuple{3, 4})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Delete(tuple.Tuple{1, 2}) {
		t.Fatal("delete failed")
	}
	if s.Delete(tuple.Tuple{9, 9}) {
		t.Fatal("deleting absent tuple must return false")
	}
	var seen []tuple.Tuple
	s.Scan(func(tp tuple.Tuple) bool {
		seen = append(seen, tp)
		return true
	})
	if len(seen) != 1 || !seen[0].Equal(tuple.Tuple{3, 4}) {
		t.Fatalf("scan = %v", seen)
	}
}

func TestDuplicatesAreMultiset(t *testing.T) {
	s, _ := newTestStore()
	s.Insert(tuple.Tuple{1, 1})
	s.Insert(tuple.Tuple{1, 1})
	if s.CountOf(tuple.Tuple{1, 1}) != 2 {
		t.Fatalf("CountOf = %d", s.CountOf(tuple.Tuple{1, 1}))
	}
	s.Delete(tuple.Tuple{1, 1})
	if s.Len() != 1 || s.CountOf(tuple.Tuple{1, 1}) != 1 {
		t.Fatal("multiset delete removed both")
	}
}

// window is what the slide tests drive a store with: either flavour of
// count-based window.
type window interface {
	AppendInto(tuple.Tuple, []stream.Update) []stream.Update
	Contents() []tuple.Tuple
}

// slide appends n tuples from a six-value domain — duplicates inside any
// window, every value recurring forever — and applies the window's updates to
// the store, which after every append must hold exactly the window's tuples,
// the same storage (a delete lets go of the tuple the window let go of, so no
// recurring value pins the ingress chunk its first occurrence was carved
// from). beforeDelete, when set, sees each expiry before it is applied.
func slide(t *testing.T, label string, s *Store, w window, n int, beforeDelete func(tuple.Tuple)) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{rng.Int63n(3), rng.Int63n(2)}
		for _, u := range w.AppendInto(tp, nil) {
			if u.Op == stream.Insert {
				s.Insert(u.Tuple)
				continue
			}
			if beforeDelete != nil {
				beforeDelete(u.Tuple)
			}
			if !s.Delete(u.Tuple) {
				t.Fatalf("%s: append %d: expiry of %v not found", label, i, u.Tuple)
			}
		}
		held := w.Contents()
		sameStorageSet(t, label, s.All(), held)
		want := 0
		for _, u := range held {
			if u.Equal(tp) {
				want++
			}
		}
		if got := s.CountOf(tp); got != want {
			t.Fatalf("%s: append %d: CountOf(%v) = %d, the window holds %d", label, i, tp, got, want)
		}
	}
}

func TestStoreFollowsSlidingWindow(t *testing.T) {
	for _, size := range []int{1, 7, 64} {
		for _, indexes := range [][]string{nil, {"A"}, {"A", "B"}} {
			label := fmt.Sprintf("window %d, indexes %v", size, indexes)
			s, _ := newTestStore()
			for _, name := range indexes {
				s.CreateIndex(name)
			}
			slide(t, label, s, stream.NewSlidingWindow(size), 2*size+100, nil)
		}
	}
}

// A partitioned window expires the oldest tuple of the arriving tuple's
// partition, which older tuples of other partitions can precede on its key
// chain: the delete has to walk to it, and still unlink that very tuple.
func TestStoreFollowsPartitionedWindow(t *testing.T) {
	s, _ := newTestStore()
	idx := s.CreateIndex("A")
	s.CreateIndex("B")
	behindHead := 0
	slide(t, "partitioned by B", s, stream.NewPartitionedWindow(3, 1), 200, func(expiring tuple.Tuple) {
		first := true
		s.ProbeEach(idx, []tuple.Value{expiring[0]}, func(head tuple.Tuple) {
			if first && !sameStorage(head, expiring) {
				behindHead++
			}
			first = false
		})
	})
	if behindHead == 0 {
		t.Fatal("every expiry was the head of its chain: the walk was never exercised")
	}
}

func TestIndexProbe(t *testing.T) {
	s, _ := newTestStore()
	idx := s.CreateIndex("A")
	s.Insert(tuple.Tuple{7, 1})
	s.Insert(tuple.Tuple{7, 2})
	s.Insert(tuple.Tuple{8, 3})
	got := s.Probe(idx, tuple.KeyOfValues([]tuple.Value{7}))
	if len(got) != 2 {
		t.Fatalf("probe matched %d, want 2", len(got))
	}
	s.Delete(tuple.Tuple{7, 1})
	got = s.Probe(idx, tuple.KeyOfValues([]tuple.Value{7}))
	if len(got) != 1 || !got[0].Equal(tuple.Tuple{7, 2}) {
		t.Fatalf("after delete: %v", got)
	}
	if got := s.Probe(idx, tuple.KeyOfValues([]tuple.Value{99})); len(got) != 0 {
		t.Fatalf("absent key matched %v", got)
	}
}

func TestIndexBackfill(t *testing.T) {
	s, _ := newTestStore()
	s.Insert(tuple.Tuple{5, 6})
	idx := s.CreateIndex("B")
	if got := s.Probe(idx, tuple.KeyOfValues([]tuple.Value{6})); len(got) != 1 {
		t.Fatal("index not backfilled")
	}
	if s.Index("B") == nil {
		t.Fatal("index lookup failed")
	}
	// CreateIndex is idempotent.
	a := s.CreateIndex("A")
	if b := s.CreateIndex("A"); a != b {
		t.Fatal("duplicate CreateIndex made a new index")
	}
}

func TestCompositeIndexCanonicalOrder(t *testing.T) {
	s, _ := newTestStore()
	// Attribute names sort to [A B] regardless of declaration order.
	i1 := s.CreateIndex("B", "A")
	i2 := s.Index("A", "B")
	if i1 != i2 {
		t.Fatal("composite index name not canonicalized")
	}
	s.Insert(tuple.Tuple{1, 2})
	if got := s.Probe(i1, tuple.KeyOfValues([]tuple.Value{1, 2})); len(got) != 1 {
		t.Fatalf("composite probe = %v", got)
	}
}

func TestScanEarlyStopAndCost(t *testing.T) {
	s, m := newTestStore()
	for i := int64(0); i < 10; i++ {
		s.Insert(tuple.Tuple{i, i})
	}
	sw := cost.NewStopwatch(m)
	n := 0
	s.Scan(func(tuple.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
	if sw.Elapsed() != 3*cost.ScanStep {
		t.Fatalf("scan charged %d units, want %d", sw.Elapsed(), 3*cost.ScanStep)
	}
}

// TestScanEqMatchesScan checks ScanEq against a full Scan filtered on the
// same column, over random inserts and deletes whose freed ids are reused:
// the same tuples in the same order, and the same meter charge. Column A's
// dense copy is kept from the empty store on, column C's is back-filled over
// a populated one with free ids in the slab. Probes hit values that are
// live, absent, and left behind only at freed ids.
func TestScanEqMatchesScan(t *testing.T) {
	m := &cost.Meter{}
	s := NewStore(0, tuple.RelationSchema(0, "A", "B", "C"), m)
	s.CreateScanColumn(0)
	rng := rand.New(rand.NewSource(11))
	var live []tuple.Tuple
	var gone []tuple.Value // column values of deleted tuples, most recent last
	freedOnly := 0
	check := func(col int, v tuple.Value) {
		t.Helper()
		var want, got []tuple.Ref
		sw := cost.NewStopwatch(m)
		s.Scan(func(tp tuple.Tuple) bool {
			if tp[col] == v {
				want = append(want, tuple.RefOf(tp))
			}
			return true
		})
		scanCost := sw.Elapsed()
		sw = cost.NewStopwatch(m)
		s.ScanEq(col, v, func(tp tuple.Tuple) { got = append(got, tuple.RefOf(tp)) })
		if !slices.Equal(got, want) {
			t.Fatalf("ScanEq(col %d, %d) visited %d tuples, Scan %d (or another order)", col, v, len(got), len(want))
		}
		if sw.Elapsed() != scanCost {
			t.Fatalf("ScanEq(col %d, %d) charged %d units, Scan %d", col, v, sw.Elapsed(), scanCost)
		}
		if len(want) == 0 && slices.ContainsFunc(s.freeIDs, func(id int32) bool { return s.dense[col][id] == v }) {
			freedOnly++
		}
	}
	for i := 0; i < 4000; i++ {
		if i == 1500 {
			s.CreateScanColumn(2)
			if len(s.freeIDs) == 0 {
				t.Fatal("no free id in the slab when the back-filled column is created")
			}
		}
		if len(live) > 40 || len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			tp := live[j]
			live = slices.Delete(live, j, j+1)
			if !s.Delete(tp) {
				t.Fatalf("delete of live tuple %v failed", tp)
			}
			gone = append(gone, tp[0], tp[2])
		} else {
			// Small domains give duplicates; a one-off value, once
			// deleted, is left only at a freed id.
			tp := tuple.Tuple{rng.Int63n(8), rng.Int63n(8), rng.Int63n(8)}
			if rng.Intn(3) == 0 {
				tp[0], tp[2] = int64(100+i), int64(100+i)
			}
			live = append(live, tp)
			s.Insert(tp)
		}
		cols := []int{0}
		if i >= 1500 {
			cols = append(cols, 2)
		}
		for _, col := range cols {
			check(col, rng.Int63n(8)) // usually live
			check(col, -1)            // never stored
			if len(gone) > 0 {        // live again, or only at a freed id
				check(col, gone[len(gone)-1-rng.Intn(min(len(gone), 4))])
			}
		}
	}
	if freedOnly < 100 {
		t.Fatalf("only %d probes hit a value stored only at freed ids", freedOnly)
	}
}

func TestMemoryBytes(t *testing.T) {
	s, _ := newTestStore()
	s.Insert(tuple.Tuple{1, 2})
	s.Insert(tuple.Tuple{3, 4})
	if s.MemoryBytes() != 2*TupleBytes {
		t.Fatalf("MemoryBytes = %d", s.MemoryBytes())
	}
}

func TestRandomizedChurnAgainstNaive(t *testing.T) {
	s, _ := newTestStore()
	idx := s.CreateIndex("A")
	rng := rand.New(rand.NewSource(8))
	var live []tuple.Tuple
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			tp := live[j]
			live = append(live[:j:j], live[j+1:]...)
			if !s.Delete(tp) {
				t.Fatalf("delete of live tuple %v failed", tp)
			}
		} else {
			tp := tuple.Tuple{rng.Int63n(10), rng.Int63n(10)}
			live = append(live, tp)
			s.Insert(tp)
		}
		if s.Len() != len(live) {
			t.Fatalf("len mismatch: %d vs %d", s.Len(), len(live))
		}
		// Spot-check one probe per step against the naive count.
		k := rng.Int63n(10)
		want := 0
		for _, tp := range live {
			if tp[0] == k {
				want++
			}
		}
		if got := len(s.Probe(idx, tuple.KeyOfValues([]tuple.Value{k}))); got != want {
			t.Fatalf("probe A=%d: got %d want %d", k, got, want)
		}
	}
}

// filterWorkload drives inserts, deletes, and probes (half hitting, half on
// absent keys) through a fresh store with one index and returns the probe
// results, the meter total, and the store for counter inspection.
func filterWorkload(t *testing.T, filters bool, n int) ([]string, cost.Units, *Store) {
	t.Helper()
	m := &cost.Meter{}
	s := NewStore(0, tuple.RelationSchema(0, "A", "B"), m)
	idx := s.CreateIndex("A")
	if !filters {
		s.SetFiltersEnabled(false)
	}
	rng := rand.New(rand.NewSource(99))
	var live []tuple.Tuple
	var out []string
	for i := 0; i < n; i++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(live) > 0:
			j := rng.Intn(len(live))
			s.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case op <= 1:
			tp := tuple.Tuple{tuple.Value(rng.Int63n(50)), tuple.Value(rng.Int63n(50))}
			s.Insert(tp)
			live = append(live, tp.Clone())
		default:
			key := rng.Int63n(50)
			if op == 3 {
				key += 1_000 // guaranteed miss
			}
			var hits []tuple.Tuple
			s.ProbeEach(idx, []tuple.Value{tuple.Value(key)}, func(tp tuple.Tuple) {
				hits = append(hits, tp.Clone())
			})
			out = append(out, fmt.Sprint(key, hits))
		}
	}
	return out, m.Total(), s
}

// TestFilteredProbesMatchUnfiltered is the store-level differential test:
// the filters may only short-circuit guaranteed misses, so probe results and
// the simulated cost total must be bit-identical with filters on and off.
func TestFilteredProbesMatchUnfiltered(t *testing.T) {
	on, costOn, s := filterWorkload(t, true, 5_000)
	off, costOff, _ := filterWorkload(t, false, 5_000)
	if len(on) != len(off) {
		t.Fatalf("%d filtered probes vs %d unfiltered", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("probe %d diverges: filtered %s, unfiltered %s", i, on[i], off[i])
		}
	}
	if costOn != costOff {
		t.Fatalf("filters changed the charge: %d vs %d units", costOn, costOff)
	}
	fs := s.FilterStats()
	if fs.ShortCircuits == 0 {
		t.Fatal("miss-heavy workload produced no short-circuits")
	}
	if fs.Misses < fs.ShortCircuits {
		t.Fatalf("misses (%d) < short-circuits (%d)", fs.Misses, fs.ShortCircuits)
	}
	if s.FilterBytes() == 0 {
		t.Fatal("enabled filters report zero bytes")
	}
}

// TestSetFiltersEnabledRebuilds toggles the filters off and on again on a
// populated store and checks probes stay correct: the re-enable rebuild must
// reproduce every live chain's membership (no false negatives).
func TestSetFiltersEnabledRebuilds(t *testing.T) {
	m := &cost.Meter{}
	s := NewStore(0, tuple.RelationSchema(0, "A"), m)
	idx := s.CreateIndex("A")
	for i := 0; i < 500; i++ {
		s.Insert(tuple.Tuple{tuple.Value(i)})
	}
	s.SetFiltersEnabled(false)
	if s.FiltersEnabled() || s.FilterBytes() != 0 {
		t.Fatal("disable left filters resident")
	}
	for i := 500; i < 600; i++ { // mutate while off
		s.Insert(tuple.Tuple{tuple.Value(i)})
	}
	s.SetFiltersEnabled(true)
	if !s.FiltersEnabled() || s.FilterBytes() == 0 {
		t.Fatal("re-enable did not rebuild")
	}
	for i := 0; i < 600; i++ {
		got := s.Probe(idx, tuple.KeyOfValues([]tuple.Value{tuple.Value(i)}))
		if len(got) != 1 {
			t.Fatalf("key %d: %d matches after rebuild, want 1", i, len(got))
		}
	}
}

// TestFilterGrowsWithStore checks maintenance keeps up with churn: the
// filter must absorb far more distinct chains than its initial capacity
// (growing by rebuild) and shed membership on delete.
func TestFilterGrowsWithStore(t *testing.T) {
	m := &cost.Meter{}
	s := NewStore(0, tuple.RelationSchema(0, "A"), m)
	idx := s.CreateIndex("A")
	n := initialFilterCapacity * 8
	for i := 0; i < n; i++ {
		s.Insert(tuple.Tuple{tuple.Value(i)})
	}
	if got := s.FilterBytes(); got == 0 {
		t.Fatal("filter vanished under growth")
	}
	for i := 0; i < n; i++ {
		if len(s.Probe(idx, tuple.KeyOfValues([]tuple.Value{tuple.Value(i)}))) != 1 {
			t.Fatalf("key %d lost after growth", i)
		}
	}
	for i := 0; i < n; i++ {
		s.Delete(tuple.Tuple{tuple.Value(i)})
	}
	// All chains cleared: every probe is a guaranteed miss the filter should
	// now short-circuit (it kept no stale fingerprints).
	before := s.FilterStats().ShortCircuits
	for i := 0; i < n; i++ {
		if len(s.Probe(idx, tuple.KeyOfValues([]tuple.Value{tuple.Value(i)}))) != 0 {
			t.Fatalf("key %d still resident after delete", i)
		}
	}
	fs := s.FilterStats()
	if fs.ShortCircuits == before {
		t.Fatal("emptied store short-circuited nothing: deletes left the filter full")
	}
}
