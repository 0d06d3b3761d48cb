package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

func newCache(buckets, budget int) *Cache {
	return New(buckets, 8, budget, &cost.Meter{})
}

func TestProbeMissHitAndEmptyHit(t *testing.T) {
	c := newCache(16, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	if _, hit := c.ProbeBytes([]byte(u)); hit {
		t.Fatal("probe of empty cache hit")
	}
	c.Create(u, nil) // negative caching: empty value is a valid entry
	v, hit := c.ProbeBytes([]byte(u))
	if !hit || len(v) != 0 {
		t.Fatal("empty entry must hit with empty value")
	}
	st := c.Stats()
	if st.Probes != 2 || st.Hits != 1 || st.Misses != 1 || st.Creates != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInsertDeleteSemantics(t *testing.T) {
	c := newCache(16, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	// Insert to an absent key is ignored (Section 3.2).
	c.InsertBytes([]byte(u), tuple.Tuple{1, 2})
	if _, hit := c.ProbeBytes([]byte(u)); hit {
		t.Fatal("insert must not create entries")
	}
	c.Create(u, []tuple.Tuple{{1, 2}})
	c.InsertBytes([]byte(u), tuple.Tuple{1, 3})
	v, _ := c.ProbeBytes([]byte(u))
	if len(v) != 2 {
		t.Fatalf("value = %v", v)
	}
	c.DeleteBytes([]byte(u), tuple.Tuple{1, 2})
	v, _ = c.ProbeBytes([]byte(u))
	if len(v) != 1 || !v[0].Equal(tuple.Tuple{1, 3}) {
		t.Fatalf("after delete: %v", v)
	}
	// Deleting an absent tuple or key is a no-op.
	c.DeleteBytes([]byte(u), tuple.Tuple{9, 9})
	c.DeleteBytes([]byte(tuple.KeyOfValues([]tuple.Value{42})), tuple.Tuple{1})
}

func TestMultisetValues(t *testing.T) {
	c := newCache(16, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	c.Create(u, []tuple.Tuple{{7}, {7}})
	c.DeleteBytes([]byte(u), tuple.Tuple{7})
	v, _ := c.ProbeBytes([]byte(u))
	if len(v) != 1 {
		t.Fatalf("multiset delete removed %d copies", 2-len(v))
	}
}

func TestDirectMappedEviction(t *testing.T) {
	c := newCache(1, -1) // every key collides
	u1 := tuple.KeyOfValues([]tuple.Value{1})
	u2 := tuple.KeyOfValues([]tuple.Value{2})
	c.Create(u1, []tuple.Tuple{{1}})
	c.Create(u2, []tuple.Tuple{{2}})
	if _, hit := c.ProbeBytes([]byte(u1)); hit {
		t.Fatal("evicted key still resident")
	}
	if _, hit := c.ProbeBytes([]byte(u2)); !hit {
		t.Fatal("new key not resident")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d", c.Entries())
	}
}

func TestCreateReplacesSameKey(t *testing.T) {
	c := newCache(4, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	c.Create(u, []tuple.Tuple{{1}, {2}})
	c.Create(u, []tuple.Tuple{{3}})
	v, _ := c.ProbeBytes([]byte(u))
	if len(v) != 1 || !v[0].Equal(tuple.Tuple{3}) {
		t.Fatalf("re-create value = %v", v)
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("same-key replace is not an eviction")
	}
}

func TestBudgetDropsCreates(t *testing.T) {
	// Budget fits the key (8) plus one ref (8) only.
	c := newCache(16, 16)
	u := tuple.KeyOfValues([]tuple.Value{1})
	c.Create(u, []tuple.Tuple{{1}, {2}}) // 8 + 16 > 16 → dropped
	if c.Entries() != 0 || c.Stats().MemoryDrops != 1 {
		t.Fatalf("oversized create not dropped: %+v", c.Stats())
	}
	c.Create(u, []tuple.Tuple{{1}})
	if c.Entries() != 1 {
		t.Fatal("fitting create dropped")
	}
	// Growing past the budget drops the whole entry (never a partial one).
	c.InsertBytes([]byte(u), tuple.Tuple{2})
	if c.Entries() != 0 || c.Stats().MemoryDrops != 2 {
		t.Fatalf("over-budget insert must drop the entry: %+v", c.Stats())
	}
}

func TestSetBudgetEvictsDown(t *testing.T) {
	c := newCache(64, -1)
	for i := int64(0); i < 20; i++ {
		c.Create(tuple.KeyOfValues([]tuple.Value{i}), []tuple.Tuple{{i}})
	}
	before := c.UsedBytes()
	c.SetBudget(before / 2)
	if c.UsedBytes() > before/2 {
		t.Fatalf("usage %d over budget %d", c.UsedBytes(), before/2)
	}
	if c.Entries() == 0 {
		t.Fatal("eviction removed everything")
	}
}

func TestDropAndClear(t *testing.T) {
	c := newCache(16, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	c.Create(u, []tuple.Tuple{{1}})
	c.Clear()
	if c.Entries() != 0 || c.UsedBytes() != 0 {
		t.Fatal("clear incomplete")
	}
}

func TestMemoryAccountingInvariant(t *testing.T) {
	c := newCache(32, -1)
	rng := rand.New(rand.NewSource(4))
	recompute := func() int {
		total := 0
		c.Each(func(u tuple.Key, v []tuple.Tuple) {
			total += len(u) + RefBytes*len(v)
		})
		return total
	}
	for i := 0; i < 2000; i++ {
		u := tuple.KeyOfValues([]tuple.Value{rng.Int63n(50)})
		switch rng.Intn(3) {
		case 0:
			var v []tuple.Tuple
			for j := 0; j < rng.Intn(4); j++ {
				v = append(v, tuple.Tuple{rng.Int63n(5)})
			}
			c.Create(u, v)
		case 1:
			c.InsertBytes([]byte(u), tuple.Tuple{rng.Int63n(5)})
		case 2:
			c.DeleteBytes([]byte(u), tuple.Tuple{rng.Int63n(5)})
		}
		if c.UsedBytes() != recompute() {
			t.Fatalf("step %d: accounted %d, actual %d", i, c.UsedBytes(), recompute())
		}
	}
}

func TestHitRate(t *testing.T) {
	c := newCache(16, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	if c.HitRate() != 0 {
		t.Fatal("hit rate with no probes")
	}
	c.ProbeBytes([]byte(u))
	c.Create(u, nil)
	c.ProbeBytes([]byte(u))
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
	c.ResetStats()
	if c.Stats().Probes != 0 {
		t.Fatal("ResetStats failed")
	}
	if c.Entries() != 1 {
		t.Fatal("ResetStats must keep entries")
	}
}

func TestCountedEntries(t *testing.T) {
	c := newCache(16, -1)
	u := tuple.KeyOfValues([]tuple.Value{1})
	mult := func(n int) func() int { return func() int { return n } }
	c.CreateCounted(u, []tuple.Tuple{{1}}, []int{2}, []int{6})
	tuples, mults, hit := c.ProbeCountedBytes([]byte(u))
	if !hit || len(tuples) != 1 || mults[0] != 2 {
		t.Fatalf("probe counted: %v %v %v", tuples, mults, hit)
	}
	// Support decays to zero → element removed.
	c.ApplyCountedDelta(u, tuple.Tuple{1}, -6, mult(0))
	tuples, _, _ = c.ProbeCountedBytes([]byte(u))
	if len(tuples) != 0 {
		t.Fatal("zero-support tuple still resident")
	}
	// New support for an absent tuple adds it with the recomputed mult.
	c.ApplyCountedDelta(u, tuple.Tuple{2}, 3, mult(5))
	tuples, mults, _ = c.ProbeCountedBytes([]byte(u))
	if len(tuples) != 1 || mults[0] != 5 {
		t.Fatalf("re-added: %v %v", tuples, mults)
	}
	// Negative delta on an absent tuple is ignored.
	c.ApplyCountedDelta(u, tuple.Tuple{9}, -1, mult(1))
	// Absent-entry deltas are ignored entirely.
	c.ApplyCountedDelta(tuple.KeyOfValues([]tuple.Value{42}), tuple.Tuple{1}, 1, mult(1))
	if c.Entries() != 1 {
		t.Fatalf("entries = %d", c.Entries())
	}
}

func TestCountedBadLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	newCache(4, -1).CreateCounted(tuple.KeyOfValues([]tuple.Value{1}), []tuple.Tuple{{1}}, []int{1}, nil)
}

// The tuple width is a property of the cache, fixed by the first tuple it is
// given: entries are walked by stride, so a second width cannot be stored.
func TestSecondWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a tuple of a second width must panic")
		}
	}()
	c := newCache(4, -1)
	c.Create(tuple.KeyOfValues([]tuple.Value{1}), []tuple.Tuple{{1, 2}})
	c.Create(tuple.KeyOfValues([]tuple.Value{2}), []tuple.Tuple{{1}})
}

// TestEntriesMatchDirectMappedModel replays random creates, inserts and
// deletes against a model that keeps what the cache is specified to keep:
// per bucket hash mod nbuckets (24 buckets take the modulo path, 32 the
// mask), the last key created there and its tuples in order, a delete moving
// the last tuple into the hole. Every argument is scratch, overwritten after
// the call, so an entry that aliases its inputs instead of copying them — or
// whose refilled or regrown backing loses a tuple — diverges.
func TestEntriesMatchDirectMappedModel(t *testing.T) {
	type entry struct {
		key  tuple.Key
		vals []tuple.Tuple
	}
	for _, nbuckets := range []int{24, 32} {
		c := newCache(nbuckets, -1)
		model := make(map[uint64]*entry)
		rng := rand.New(rand.NewSource(int64(nbuckets)))
		key := make([]byte, 8)
		wide := make(tuple.Tuple, 4)
		for i := 0; i < 20_000; i++ {
			key = tuple.AppendKeyValues(key[:0], []tuple.Value{rng.Int63n(60)})
			u := tuple.Key(key)
			b := tuple.HashBytes(key, cacheSeed) % uint64(nbuckets)
			for j := range wide {
				wide[j] = rng.Int63n(3)
			}
			r := tuple.Tuple{wide[1], wide[3]}
			m := model[b]
			switch rng.Intn(7) {
			case 0:
				v := make([]tuple.Tuple, rng.Intn(5))
				e := &entry{key: u}
				for j := range v {
					v[j] = tuple.Tuple{rng.Int63n(3), rng.Int63n(3)}
					e.vals = append(e.vals, v[j].Clone())
				}
				c.CreateBytes(key, v)
				model[b] = e
				for j := range v {
					v[j][0], v[j][1] = -1, -1
				}
			case 1, 2, 3:
				c.InsertColsBytes(key, wide, []int{1, 3})
				if m != nil && m.key == u {
					m.vals = append(m.vals, r)
				}
			case 4, 5, 6:
				c.DeleteBytes(key, r)
				if m != nil && m.key == u {
					for j, v := range m.vals {
						if v.Equal(r) {
							m.vals[j] = m.vals[len(m.vals)-1]
							m.vals = m.vals[:len(m.vals)-1]
							break
						}
					}
				}
			}
			got, hit := c.ProbeBytes(key)
			m = model[b]
			if want := m != nil && m.key == u; hit != want {
				t.Fatalf("%d buckets, step %d: hit = %v, model says %v", nbuckets, i, hit, want)
			}
			if !hit {
				continue
			}
			if len(got) != len(m.vals) {
				t.Fatalf("%d buckets, step %d: entry %v, model %v", nbuckets, i, got, m.vals)
			}
			for j := range got {
				if !got[j].Equal(m.vals[j]) {
					t.Fatalf("%d buckets, step %d: entry %v, model %v", nbuckets, i, got, m.vals)
				}
			}
		}
		if c.Stats().Evictions == 0 {
			t.Fatalf("%d buckets: no create ever replaced a resident entry", nbuckets)
		}

		// Two probes in a row: the headers a probe returns are the cache's
		// one scratch slice, rebuilt by the next probe. What a caller copied
		// out before that stays good; the first slice itself must not be read
		// again (join.applyLookup, the one program caller, emits before it
		// probes the next key).
		var full []uint64
		for b := uint64(0); b < uint64(nbuckets); b++ {
			if m := model[b]; m != nil && len(m.vals) > 0 {
				full = append(full, b)
			}
		}
		if len(full) < 2 {
			t.Fatalf("%d buckets: model left %d non-empty entries", nbuckets, len(full))
		}
		first, second := model[full[0]], model[full[1]]
		got1, _ := c.ProbeBytes([]byte(first.key))
		kept := make([]tuple.Tuple, len(got1))
		for j := range got1 {
			kept[j] = got1[j].Clone()
		}
		got2, _ := c.ProbeBytes([]byte(second.key))
		if &got1[0] != &got2[0] {
			t.Fatalf("%d buckets: two probes returned distinct header slices; the contract is one scratch", nbuckets)
		}
		for j := range kept {
			if !kept[j].Equal(first.vals[j]) {
				t.Fatalf("%d buckets: copied-out tuple %d = %v, model %v", nbuckets, j, kept[j], first.vals[j])
			}
		}
		for j := range got2 {
			if !got2[j].Equal(second.vals[j]) {
				t.Fatalf("%d buckets: second probe tuple %d = %v, model %v", nbuckets, j, got2[j], second.vals[j])
			}
		}

		// Victims go in bucket order, not slab order (the slab is in order
		// of first creation, and after the first shrink partly recycled):
		// every simulated figure rests on it.
		shrink := func(budget int) {
			t.Helper()
			used := c.UsedBytes()
			for b := uint64(0); b < uint64(nbuckets) && used > budget; b++ {
				if m := model[b]; m != nil {
					used -= 8 + RefBytes*len(m.vals)
					delete(model, b)
				}
			}
			c.SetBudget(budget)
			c.SetBudget(-1)
			if c.UsedBytes() != used || c.Entries() != len(model) {
				t.Fatalf("%d buckets: shrink to %d left %d bytes in %d entries, model %d in %d",
					nbuckets, budget, c.UsedBytes(), c.Entries(), used, len(model))
			}
			var order []uint64
			c.Each(func(u tuple.Key, v []tuple.Tuple) {
				b := tuple.HashBytes([]byte(u), cacheSeed) % uint64(nbuckets)
				order = append(order, b)
				if m := model[b]; m == nil || m.key != u || len(m.vals) != len(v) {
					t.Fatalf("%d buckets: shrink to %d kept %q in bucket %d, model %+v", nbuckets, budget, u, b, m)
				}
			})
			for j := 1; j < len(order); j++ {
				if order[j-1] >= order[j] {
					t.Fatalf("%d buckets: Each visited buckets %v, not ascending", nbuckets, order)
				}
			}
		}
		shrink(c.UsedBytes() / 2)
		slab := len(c.ents)
		for i := int64(100); i < 130; i++ {
			key = tuple.AppendKeyValues(key[:0], []tuple.Value{i})
			c.CreateBytes(key, []tuple.Tuple{{i, i}})
			model[tuple.HashBytes(key, cacheSeed)%uint64(nbuckets)] = &entry{key: tuple.Key(key), vals: []tuple.Tuple{{i, i}}}
		}
		if len(c.ents) != slab {
			t.Fatalf("%d buckets: creates after a shrink grew the slab %d → %d instead of reusing freed entries", nbuckets, slab, len(c.ents))
		}
		shrink(c.UsedBytes() / 3)

		var want []int32
		for _, e := range c.buckets {
			if e != 0 {
				want = append(want, e-1)
			}
		}
		freed := len(c.free)
		c.Clear()
		if c.Entries() != 0 || c.UsedBytes() != 0 {
			t.Fatalf("%d buckets: Clear left %d entries, %d bytes", nbuckets, c.Entries(), c.UsedBytes())
		}
		if got := c.free[freed:]; !slices.Equal(got, want) {
			t.Fatalf("%d buckets: Clear released entries %v, bucket order is %v", nbuckets, got, want)
		}
	}
}

// TestCacheEntryFootprint measures what a cache really holds on the heap
// against what it is accounted at. The shapes are the ones a selected cache
// has in the benchmark's workloads: buckets at 8× the resident entries. A
// slot struct per bucket, a key allocation per entry or a header per tuple
// reads several times these bounds (929 / 1 237 / 1 007 bytes per entry and
// 786 KB empty before the bucket array became 4-byte indices over a slab).
func TestCacheEntryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a sync.Pool's victim cache (fmt, testing) lives one cycle more
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	key := make([]byte, 0, 8)
	for _, sh := range []struct {
		buckets, entries, tuples, width int
		bound                           int
	}{
		{8192, 940, 2, 2, 160},
		{4096, 386, 5, 2, 240},
		{4096, 470, 4, 2, 190},
	} {
		v := make([]tuple.Tuple, sh.tuples)
		for j := range v {
			v[j] = make(tuple.Tuple, sh.width)
		}
		before := heap()
		c := newCache(sh.buckets, -1)
		for i := int64(0); c.Entries() < sh.entries; i++ {
			key = tuple.AppendKeyValues(key[:0], []tuple.Value{i})
			c.CreateBytes(key, v)
		}
		per := int(heap()-before) / c.Entries()
		runtime.KeepAlive(c)
		t.Logf("%d buckets, %d entries of %d×%d values: %d heap bytes per entry (accounted %d)",
			sh.buckets, sh.entries, sh.tuples, sh.width, per, (c.UsedBytes()+c.FixedBytes())/c.Entries())
		if per > sh.bound {
			t.Errorf("%d buckets, %d entries: %d heap bytes per resident entry, bound %d", sh.buckets, sh.entries, per, sh.bound)
		}
	}
	before := heap()
	c := newCache(8192, -1)
	empty := int(heap() - before)
	runtime.KeepAlive(c)
	if empty > 112<<10 {
		t.Errorf("empty 8192-bucket cache holds %d heap bytes, bound %d", empty, 112<<10)
	}
}

// TestCacheSteadyStateAllocFree: on a table with every bucket occupied, the
// maintenance cycle the engine runs — create over a resident entry, insert,
// delete, probe — allocates nothing once buffers have reached their size,
// and an entry freed by a budget drop is the one the next create takes.
func TestCacheSteadyStateAllocFree(t *testing.T) {
	const nbuckets = 64
	c := newCache(nbuckets, -1)
	var keys [][]byte
	for i := int64(0); c.Entries() < nbuckets; i++ {
		k := tuple.AppendKeyValues(nil, []tuple.Value{i})
		c.CreateBytes(k, []tuple.Tuple{{i, i}, {i, i + 1}})
		keys = append(keys, k)
	}
	v := []tuple.Tuple{{1, 2}, {3, 4}}
	r := tuple.Tuple{5, 6}
	i := 0
	cycle := func() {
		k := keys[i%len(keys)]
		i++
		c.CreateBytes(k, v)
		c.InsertBytes(k, r)
		c.DeleteBytes(k, r)
		if got, hit := c.ProbeBytes(k); !hit || len(got) != 2 {
			t.Fatalf("probe after the cycle: %v, %v", got, hit)
		}
	}
	for range keys {
		cycle() // warm-up: every entry's buffer reaches three tuples
	}
	if a := testing.AllocsPerRun(4*len(keys), cycle); a != 0 {
		t.Fatalf("steady-state cycle allocates %v times per op, want 0", a)
	}

	slab := len(c.ents)
	c.SetBudget(c.UsedBytes() - 1) // drops the first bucket's entry
	c.SetBudget(-1)
	if c.Entries() != nbuckets-1 || len(c.free) != 1 {
		t.Fatalf("budget drop left %d entries, %d free", c.Entries(), len(c.free))
	}
	for _, k := range keys {
		c.CreateBytes(k, v) // one of them lands in the emptied bucket
	}
	if c.Entries() != nbuckets || len(c.free) != 0 || len(c.ents) != slab {
		t.Fatalf("refill: %d entries, %d free, slab %d → %d", c.Entries(), len(c.free), slab, len(c.ents))
	}
}
