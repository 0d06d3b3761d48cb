package relation

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"acache/internal/cost"
	"acache/internal/tier"
	"acache/internal/tuple"
)

// visitsLive checks that Scan, All and EachDurable each visit exactly the
// multiset want: the slab walk under them skips every freed id and nothing
// else, whichever tier a tuple's page is in.
func visitsLive(t *testing.T, label string, s *Store, want []tuple.Tuple) {
	t.Helper()
	var scanned, durable []tuple.Tuple
	s.Scan(func(u tuple.Tuple) bool {
		scanned = append(scanned, u.Clone())
		return true
	})
	s.EachDurable(func(u tuple.Tuple, slot int32, idx int) {
		if slot >= 0 {
			u = ColdTuple(s.tier.sp, slot, idx, s.tier.width)
		}
		durable = append(durable, u.Clone())
	})
	sameMultiset(t, label+": Scan", scanned, want)
	sameMultiset(t, label+": All", s.All(), want)
	sameMultiset(t, label+": EachDurable", durable, want)
}

// Differential test: a tiered store against an untired twin fed the same
// randomized operation stream. Results, contents, and meter totals must be
// bit-identical — tiering only moves bytes, never behavior — while the
// constrained watermark forces real demotion traffic. Both are held to a
// slice model of what is live.
func TestStoreTierDifferential(t *testing.T) {
	for _, hot := range []int{4096, 16384, 1 << 20} {
		dir := t.TempDir()
		schema := tuple.RelationSchema(0, "A", "B", "C")
		var mt, mm cost.Meter
		tiered := NewStore(0, schema, &mt)
		opts := tier.Options{Dir: dir, HotBytes: hot, PageBytes: 4096}
		if err := tiered.EnableTier(opts, filepath.Join(dir, "rel0.spill")); err != nil {
			t.Fatal(err)
		}
		mem := NewStore(0, schema, &mm)
		idxT := tiered.CreateIndex("A")
		idxM := mem.CreateIndex("A")
		rng := rand.New(rand.NewSource(int64(hot)))
		ref := &refStore{}

		randTuple := func() tuple.Tuple {
			return tuple.Tuple{int64(rng.Intn(64)), int64(rng.Intn(8)), int64(rng.Intn(8))}
		}
		for step := 0; step < 8000; step++ {
			switch op := rng.Intn(100); {
			case op < 55:
				u := randTuple()
				tiered.Insert(u.Clone())
				mem.Insert(u)
				ref.insert(u)
			case op < 75:
				u := randTuple()
				if got, want := tiered.Delete(u), mem.Delete(u); got != want || got != ref.delete(u) {
					t.Fatalf("hot=%d step %d: Delete = %v, untiered %v", hot, step, got, want)
				}
			case op < 90:
				vals := []tuple.Value{int64(rng.Intn(64))}
				var got, want []tuple.Tuple
				tiered.ProbeEach(idxT, vals, func(m tuple.Tuple) { got = append(got, m.Clone()) })
				mem.ProbeEach(idxM, vals, func(m tuple.Tuple) { want = append(want, m.Clone()) })
				sameOrdered(t, "tiered ProbeEach", got, want)
			default:
				u := randTuple()
				if got, want := tiered.CountOf(u), mem.CountOf(u); got != want {
					t.Fatalf("hot=%d step %d: CountOf = %d, want %d", hot, step, got, want)
				}
			}
			if tiered.Len() != mem.Len() {
				t.Fatalf("hot=%d step %d: Len %d vs %d", hot, step, tiered.Len(), mem.Len())
			}
			if step%1000 == 0 { // the scan promotes what it reads; later inserts demote again
				visitsLive(t, "tiered", tiered, ref.tuples)
				visitsLive(t, "untiered", mem, ref.tuples)
			}
		}
		if mt.Total() != mm.Total() {
			t.Fatalf("hot=%d: meter totals diverge: tiered %v, in-memory %v", hot, mt.Total(), mm.Total())
		}
		if tiered.HotMemoryBytes()+tiered.ColdMemoryBytes() != tiered.MemoryBytes() {
			t.Fatalf("hot=%d: tier accounting: hot %d + cold %d != logical %d", hot,
				tiered.HotMemoryBytes(), tiered.ColdMemoryBytes(), tiered.MemoryBytes())
		}
		promos, demos := tiered.TierCounters()
		if hot == 4096 && demos == 0 {
			t.Fatalf("constrained watermark produced no demotions (promos %d)", promos)
		}
		if hot == 4096 && tiered.HotMemoryBytes() >= tiered.MemoryBytes() && tiered.Len() > 200 {
			t.Fatalf("constrained watermark left everything hot: %d of %d bytes",
				tiered.HotMemoryBytes(), tiered.MemoryBytes())
		}
		visitsLive(t, "tiered", tiered, ref.tuples)
		visitsLive(t, "untiered", mem, ref.tuples)
		path := filepath.Join(dir, "rel0.spill")
		if err := tiered.CloseTier(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("CloseTier left spill file: %v", err)
		}
	}
}

// EachDurable must partition the store exactly into inline hot tuples and
// resolvable cold page refs.
func TestStoreTierEachDurable(t *testing.T) {
	dir := t.TempDir()
	schema := tuple.RelationSchema(0, "A", "B")
	s := NewStore(0, schema, &cost.Meter{})
	path := filepath.Join(dir, "rel0.spill")
	if err := s.EnableTier(tier.Options{Dir: dir, HotBytes: 4096, PageBytes: 4096}, path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		s.Insert(tuple.Tuple{int64(i), int64(i % 7)})
	}
	var hot, cold int
	var all []tuple.Tuple
	s.EachDurable(func(u tuple.Tuple, slot int32, idx int) {
		if slot < 0 {
			hot++
			all = append(all, u.Clone())
		} else {
			cold++
			all = append(all, ColdTuple(s.tier.sp, slot, idx, s.tier.width))
		}
	})
	if cold == 0 {
		t.Fatal("no cold refs at a constrained watermark")
	}
	if hot+cold != s.Len() {
		t.Fatalf("EachDurable visited %d, want %d", hot+cold, s.Len())
	}
	sameMultiset(t, "EachDurable", all, s.All())
	if err := s.CloseTier(); err != nil {
		t.Fatal(err)
	}
}
