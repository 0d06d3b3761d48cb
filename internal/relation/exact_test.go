package relation

import (
	"math"
	"math/rand"
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

// An index on one column confirms a chain on its 64-bit slot hash alone
// (HashIndex.exact). These tests prove the shortcut: one-column HashOf has a
// left inverse, a two-column key does not and keeps its column compare, and an
// exact index answers every operation exactly as the compare path does.

// The multipliers of tuple.MixWord's finalizer; a wrong copy fails the
// round trips below.
const (
	mixMul1 = 0xff51afd7ed558ccd
	mixMul2 = 0xc4ceb9fe1a85ec53
)

// mulInverse returns the inverse of odd a modulo 2^64 (Newton's iteration;
// each step doubles the correct low bits, and a·a ≡ 1 mod 8 to start).
func mulInverse(a uint64) uint64 {
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	return inv
}

// unshift inverts y = x ^ x>>k: the XOR of y>>(i·k) over i telescopes to x.
func unshift(y uint64, k uint) uint64 {
	x := y
	for s := k; s < 64; s += k {
		x ^= y >> s
	}
	return x
}

// unfinal inverts MixWord's finalizer: MixWord(h, v) == out exactly when
// h^v == unfinal(out).
func unfinal(out uint64) uint64 {
	x := unshift(out, 29) * mulInverse(mixMul2)
	return unshift(x, 33) * mulInverse(mixMul1)
}

// unmix returns the h with MixWord(h, v) == out.
func unmix(out, v uint64) uint64 { return unfinal(out) ^ v }

var edgeValues = []tuple.Value{0, -1, math.MinInt64, math.MaxInt64}

// TestOneColumnHashInjective round-trips MixWord through its inverse and
// recovers every one-column key from its HashOf, edge values included: a
// function with a left inverse is injective, so equal one-column hashes mean
// equal keys.
func TestOneColumnHashInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := append([]tuple.Value(nil), edgeValues...)
	for i := 0; i < 10_000; i++ {
		vals = append(vals, tuple.Value(rng.Uint64()))
	}
	for _, v := range vals {
		h := rng.Uint64()
		if out := tuple.MixWord(h, uint64(v)); unmix(out, uint64(v)) != h {
			t.Fatalf("unmix(MixWord(%#x, %d)) != %#x", h, v, h)
		}
		x := rng.Uint64()
		if tuple.MixWord(unmix(x, uint64(v)), uint64(v)) != x {
			t.Fatalf("MixWord(unmix(%#x, %d)) != %#x", x, v, x)
		}
		// HashOf over one column: MixWord(MixWord(seed, v), 1).
		hv := tuple.HashOf(tuple.Tuple{v}, []int{0}, hashSeed)
		if got := tuple.Value(unfinal(unmix(hv, 1)) ^ hashSeed); got != v {
			t.Fatalf("key %d hashes to %#x, which inverts to %d", v, hv, got)
		}
	}
}

// collidingKey returns a two-column key (a2, b) whose HashOf equals that of
// (a1, b1): run HashOf backwards from the target hash through the length fold
// to the state after the second column, then solve for the column that
// reaches it from (seed, a2).
func collidingKey(a1, b1, a2 tuple.Value) tuple.Value {
	target := tuple.HashOf(tuple.Tuple{a1, b1}, []int{0, 1}, hashSeed)
	afterB := unmix(target, 2)
	return tuple.Value(unfinal(afterB) ^ tuple.MixWord(hashSeed, uint64(a2)))
}

// TestTwoColumnCollisionKeepsChains builds two different two-column keys with
// one 64-bit HashOf and checks that an index on them keeps two chains through
// every operation that confirms one — the column compare a wider key keeps.
func TestTwoColumnCollisionKeepsChains(t *testing.T) {
	const a1, b1, a2 = 7, 11, 8
	b2 := collidingKey(a1, b1, a2)
	k1, k2 := []tuple.Value{a1, b1}, []tuple.Value{a2, b2}
	h := tuple.HashValues(k1, hashSeed)
	if h2 := tuple.HashValues(k2, hashSeed); h2 != h {
		t.Fatalf("constructed keys hash to %#x and %#x", h, h2)
	}

	build := func(exact bool) (*Store, *HashIndex, []tuple.Tuple) {
		s := NewStore(0, tuple.RelationSchema(0, "A", "B", "P"), &cost.Meter{})
		idx := s.CreateIndex("A", "B")
		if idx.exact {
			t.Fatal("a two-column index is marked exact")
		}
		if one := s.CreateIndex("P"); !one.exact {
			t.Fatal("a one-column index is not marked exact")
		}
		idx.exact = exact
		ts := []tuple.Tuple{{a1, b1, 0}, {a2, b2, 0}, {a1, b1, 1}, {a2, b2, 1}}
		for _, tp := range ts {
			s.Insert(tp)
		}
		return s, idx, ts
	}
	probe := func(s *Store, idx *HashIndex, key []tuple.Value, memo *ProbeMemo) []tuple.Tuple {
		var got []tuple.Tuple
		collect := func(tp tuple.Tuple) { got = append(got, tp) }
		if memo != nil {
			s.ProbeEachMemo(idx, key, memo, collect)
		} else {
			s.ProbeEach(idx, key, collect)
		}
		return got
	}
	want := func(key []tuple.Value, got []tuple.Tuple, ts ...tuple.Tuple) {
		t.Helper()
		if len(got) != len(ts) {
			t.Fatalf("key %v: %d matches %v, want %v", key, len(got), got, ts)
		}
		for i := range ts {
			if !sameStorage(got[i], ts[i]) {
				t.Fatalf("key %v: match %d is %v, want %v", key, i, got[i], ts[i])
			}
		}
	}

	s, idx, ts := build(false)
	if chains := countSlots(idx, h); chains != 2 {
		t.Fatalf("%d chains hold hash %#x, want 2", chains, h)
	}
	var memo ProbeMemo
	for pass := 0; pass < 2; pass++ { // the second pass replays the memo
		want(k1, probe(s, idx, k1, nil), ts[0], ts[2])
		want(k2, probe(s, idx, k2, nil), ts[1], ts[3])
		want(k1, probe(s, idx, k1, &memo), ts[0], ts[2])
		want(k2, probe(s, idx, k2, &memo), ts[1], ts[3])
	}
	for _, tp := range ts {
		if n := s.Holding(tp); n != 1 {
			t.Fatalf("Holding(%v) = %d, want 1", tp, n)
		}
	}
	if s.Delete(tuple.Tuple{a2, b1, 0}) || s.Delete(tuple.Tuple{a1, b2, 0}) {
		t.Fatal("deleted a tuple the store never held")
	}
	if !s.Delete(ts[1].Clone()) {
		t.Fatalf("Delete(%v) found nothing", ts[1])
	}
	want(k1, probe(s, idx, k1, nil), ts[0], ts[2])
	want(k2, probe(s, idx, k2, &memo), ts[3])
	if s.Holding(ts[1]) != 0 || s.Holding(ts[0]) != 1 {
		t.Fatalf("after deleting %v: Holding %d, and %d of %v", ts[1], s.Holding(ts[1]), s.Holding(ts[0]), ts[0])
	}
	for _, tp := range []tuple.Tuple{ts[3], ts[0], ts[2]} {
		if !s.Delete(tp) {
			t.Fatalf("Delete(%v) found nothing", tp)
		}
	}
	if s.Len() != 0 || idx.table.live != 0 {
		t.Fatalf("emptied store holds %d tuples in %d chains", s.Len(), idx.table.live)
	}

	// The control: matched on the hash alone, the two keys fall into one
	// chain, so the collision above is real at the table.
	s, idx, ts = build(true)
	if chains := countSlots(idx, h); chains != 1 {
		t.Fatalf("hash-only matching kept %d chains, want the keys merged into 1", chains)
	}
	want(k2, probe(s, idx, k2, nil), ts...)
}

// countSlots counts the live table slots holding hash h.
func countSlots(idx *HashIndex, h uint64) int {
	n := 0
	for _, sl := range idx.table.slots {
		if sl.head != emptySlot && sl.hash == h {
			n++
		}
	}
	return n
}

// TestExactMatchesEqPath runs one churn stream of the nway5 shape (a
// one-column relation over a window of 4 096, values from twice the window,
// each repeated mult times in a row) through an exact index and through the
// same index with its column compare forced back on, and compares every
// probe's tuples in order, every Delete result and every Holding count.
func TestExactMatchesEqPath(t *testing.T) {
	for _, mult := range []int{1, 5} {
		const window, domain = 4096, 2 * 4096
		type side struct {
			s    *Store
			idx  *HashIndex
			memo ProbeMemo
		}
		sides := make([]*side, 2)
		for i := range sides {
			s := NewStore(0, tuple.RelationSchema(0, "A"), &cost.Meter{})
			sides[i] = &side{s: s, idx: s.CreateIndex("A")}
		}
		if !sides[0].idx.exact {
			t.Fatal("a one-column index is not marked exact")
		}
		sides[1].idx.exact = false

		rng := rand.New(rand.NewSource(int64(mult)))
		var ring []tuple.Tuple
		var cur tuple.Value
		var got [2][]tuple.Tuple
		compare := func(step int, what string) {
			t.Helper()
			if len(got[0]) != len(got[1]) {
				t.Fatalf("mult %d step %d %s: exact %d matches, compare path %d", mult, step, what, len(got[0]), len(got[1]))
			}
			for i := range got[0] {
				if !sameStorage(got[0][i], got[1][i]) {
					t.Fatalf("mult %d step %d %s: match %d differs: %v vs %v", mult, step, what, i, got[0][i], got[1][i])
				}
			}
		}
		for step := 0; step < 4*window; step++ {
			if step%mult == 0 {
				cur = tuple.Value(rng.Int63n(domain))
			}
			tp := tuple.Tuple{cur}
			ring = append(ring, tp)
			for _, sd := range sides {
				sd.s.Insert(tp)
			}
			if len(ring) > window { // the window's expiry: its own tuple
				old := ring[0]
				ring = ring[1:]
				for _, sd := range sides {
					if !sd.s.Delete(old) {
						t.Fatalf("mult %d step %d: expiry of %v found nothing", mult, step, old)
					}
				}
			}
			// A delete by value, of a key held or not: both sides must agree.
			if step%7 == 0 {
				probe := tuple.Tuple{tuple.Value(rng.Int63n(domain))}
				if a, b := sides[0].s.Holding(probe), sides[1].s.Holding(probe); a != b {
					t.Fatalf("mult %d step %d: Holding(%v) %d vs %d", mult, step, probe, a, b)
				}
				if step%21 == 0 {
					a, b := sides[0].s.Delete(probe), sides[1].s.Delete(probe)
					if a != b {
						t.Fatalf("mult %d step %d: Delete(%v) %v vs %v", mult, step, probe, a, b)
					}
					if a { // keep the expiry ring in step with the stores
						for i, r := range ring {
							if r.Equal(probe) {
								ring = append(ring[:i:i], ring[i+1:]...)
								break
							}
						}
					}
				}
			}
			key := []tuple.Value{tuple.Value(rng.Int63n(domain))}
			for i, sd := range sides {
				got[i] = got[i][:0]
				sd.s.ProbeEach(sd.idx, key, func(m tuple.Tuple) { got[i] = append(got[i], m) })
			}
			compare(step, "ProbeEach")
			for i, sd := range sides {
				got[i] = got[i][:0]
				sd.s.ProbeEachMemo(sd.idx, []tuple.Value{cur}, &sd.memo, func(m tuple.Tuple) { got[i] = append(got[i], m) })
			}
			compare(step, "ProbeEachMemo")
			if step%64 == 0 {
				for i, sd := range sides {
					got[i] = sd.s.Probe(sd.idx, tuple.KeyOfValues(key))
				}
				compare(step, "Probe")
			}
		}
		if a, b := sides[0].s.Len(), sides[1].s.Len(); a != b || a != len(ring) {
			t.Fatalf("mult %d: %d and %d tuples stored, window holds %d", mult, a, b, len(ring))
		}
	}
}
