package relation

import (
	"fmt"
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

// BenchmarkStoreSlide is a full sliding window's maintenance, the tail of
// every update pipeline: expire the oldest tuple, insert a new one. Window
// 1 000 sits in cache, 50 000 does not — there each table an update touches
// is a cache miss; join-key chains are about four tuples long. An iteration
// must not allocate, at any window or index count.
func BenchmarkStoreSlide(b *testing.B) {
	for _, window := range []int{1_000, 50_000} {
		for _, indexes := range [][]string{{"A"}, {"A", "B"}} {
			b.Run(fmt.Sprintf("window=%d/indexes=%d", window, len(indexes)), func(b *testing.B) {
				s := NewStore(0, tuple.RelationSchema(0, "A", "B"), &cost.Meter{})
				for _, name := range indexes {
					s.CreateIndex(name)
				}
				seed := uint64(42)
				next := func() int64 { // xorshift: cheap next to what is measured
					seed ^= seed << 13
					seed ^= seed >> 7
					seed ^= seed << 17
					return int64(seed % uint64(window/4))
				}
				ring := make([]tuple.Tuple, window)
				at := 0
				step := func() {
					t := ring[at]
					if !s.Delete(t) {
						b.Fatalf("expiry of %v not found", t)
					}
					t[0], t[1] = next(), next() // the store has let go of it
					s.Insert(t)
					if at++; at == window {
						at = 0
					}
				}
				vals := make([]tuple.Value, 2*window)
				for i := range ring {
					ring[i] = vals[2*i : 2*i+2 : 2*i+2]
					ring[i][0], ring[i][1] = next(), next()
					s.Insert(ring[i])
				}
				for i := 0; i < 2*window; i++ { // settle table sizes and the free list
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.StopTimer()
				if got := testing.AllocsPerRun(1_000, step); got != 0 {
					b.Fatalf("%.0f allocs per slide, want 0", got)
				}
			})
		}
	}
}

// BenchmarkStoreScan is one nested-loop probe of a 1 000-tuple window on a
// column with about four tuples per value: Scan with the equality test in
// its callback, as a scan step without a dense column runs it, against
// ScanEq on the column's dense copy.
func BenchmarkStoreScan(b *testing.B) {
	const window = 1_000
	s := NewStore(0, tuple.RelationSchema(0, "A", "B"), &cost.Meter{})
	s.CreateScanColumn(0)
	vals := make([]tuple.Value, 2*window)
	for i := 0; i < window; i++ {
		t := vals[2*i : 2*i+2 : 2*i+2]
		t[0], t[1] = int64(i%(window/4)), int64(i)
		s.Insert(t)
	}
	sunk := 0
	b.Run("kernel=Scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := int64(i % (window / 4))
			s.Scan(func(t tuple.Tuple) bool {
				if t[0] == v {
					sunk++
				}
				return true
			})
		}
	})
	b.Run("kernel=ScanEq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ScanEq(0, int64(i%(window/4)), func(tuple.Tuple) { sunk++ })
		}
	})
	if sunk == 0 {
		b.Fatal("no tuple matched")
	}
}

// BenchmarkStoreProbe is one index probe of a 50 000-tuple window over a
// 100 000-value domain, the nway5 shape, in an order that defeats the
// prefetcher: a hit visits about one tuple, a miss none. Width 1 is a
// covering index, which hands over the probe key; width 2 keys on the same
// column and loads each match it hands over. Every visit reads its match's
// key, as a join step does. An iteration must not allocate.
func BenchmarkStoreProbe(b *testing.B) {
	const window, domain = 50_000, 100_000
	const stride = 7_919 // prime, so i·stride mod window visits every key
	for _, width := range []int{1, 2} {
		s := NewStore(0, tuple.RelationSchema(0, []string{"A", "B"}[:width]...), &cost.Meter{})
		idx := s.CreateIndex("A")
		seed := uint64(42)
		vals := make([]tuple.Value, width*window)
		keys := make([]tuple.Value, window)
		for i := range keys {
			t := vals[width*i : width*(i+1) : width*(i+1)]
			for c := range t {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				t[c] = int64(seed % domain)
			}
			s.Insert(t)
			keys[i] = t[0]
		}
		for _, name := range []string{"hit", "miss"} {
			hit := name == "hit"
			b.Run(fmt.Sprintf("width=%d/probe=%s", width, name), func(b *testing.B) {
				key := make([]tuple.Value, 1)
				matches, sum := 0, tuple.Value(0)
				visit := func(m tuple.Tuple) { matches++; sum += m[0] }
				at := 0
				probe := func() {
					if at = (at + stride) % window; hit {
						key[0] = keys[at]
					} else {
						key[0] = domain + tuple.Value(at) // never drawn
					}
					s.ProbeEach(idx, key, visit)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					probe()
				}
				b.StopTimer()
				if hit && matches < b.N || !hit && matches != 0 {
					b.Fatalf("%d matches in %d %s probes (key sum %d)", matches, b.N, name, sum)
				}
				if got := testing.AllocsPerRun(1_000, probe); got != 0 {
					b.Fatalf("%.0f allocs per probe, want 0", got)
				}
			})
		}
	}
}
