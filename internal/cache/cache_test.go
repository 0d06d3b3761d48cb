package cache

import (
	"math/rand"
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
	}
}
