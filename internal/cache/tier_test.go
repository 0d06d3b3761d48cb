package cache

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"acache/internal/cost"
	"acache/internal/tuple"
)

func tierKey(vals ...tuple.Value) tuple.Key {
	return tuple.KeyOfValues(vals)
}

// Differential test: a tiered cache against an untired twin fed the same
// operation stream. Probe results, hit/miss statistics, byte accounting,
// and meter totals must be bit-identical; the constrained watermark must
// produce real demotion traffic.
func TestCacheTierDifferential(t *testing.T) {
	dir := t.TempDir()
	tr, err := NewTier(filepath.Join(dir, "cache.spill"), 4096, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mt, mm cost.Meter
	tc := New(64, 16, -1, &mt)
	mc := New(64, 16, -1, &mm)
	tc.AttachTier(tr)
	rng := rand.New(rand.NewSource(7))

	key := func() tuple.Key { return tierKey(tuple.Value(rng.Intn(200)), 0) }
	val := func() []tuple.Tuple {
		n := rng.Intn(12)
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{tuple.Value(rng.Intn(50)), tuple.Value(rng.Intn(50))}
		}
		return out
	}
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(100); {
		case op < 35:
			u, v := key(), val()
			tc.Create(u, v)
			mc.Create(u, v)
		case op < 55:
			u := key()
			r := tuple.Tuple{tuple.Value(rng.Intn(50)), tuple.Value(rng.Intn(50))}
			tc.InsertBytes([]byte(u), r.Clone())
			mc.InsertBytes([]byte(u), r)
		case op < 65:
			u := key()
			r := tuple.Tuple{tuple.Value(rng.Intn(50)), tuple.Value(rng.Intn(50))}
			tc.DeleteBytes([]byte(u), r)
			mc.DeleteBytes([]byte(u), r)
		default:
			u := key()
			got, okG := tc.ProbeBytes([]byte(u))
			want, okW := mc.ProbeBytes([]byte(u))
			if okG != okW || len(got) != len(want) {
				t.Fatalf("step %d: Probe (%d,%v) vs (%d,%v)", step, len(got), okG, len(want), okW)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("step %d: Probe tuple %d: %v vs %v", step, i, got[i], want[i])
				}
			}
		}
		if tc.UsedBytes() != mc.UsedBytes() || tc.Entries() != mc.Entries() {
			t.Fatalf("step %d: accounting diverged: used %d/%d entries %d/%d",
				step, tc.UsedBytes(), mc.UsedBytes(), tc.Entries(), mc.Entries())
		}
	}
	if mt.Total() != mm.Total() {
		t.Fatalf("meter totals diverge: %v vs %v", mt.Total(), mm.Total())
	}
	sg, sw := tc.Stats(), mc.Stats()
	if sg != sw {
		t.Fatalf("stats diverge:\n%+v\n%+v", sg, sw)
	}
	promos, demos := tr.Counters()
	if demos == 0 || promos == 0 {
		t.Fatalf("no tier traffic (promos %d, demos %d)", promos, demos)
	}
	if tc.HotUsedBytes()+tc.ColdUsedBytes() != tc.UsedBytes() {
		t.Fatalf("hot %d + cold %d != used %d", tc.HotUsedBytes(), tc.ColdUsedBytes(), tc.UsedBytes())
	}
	// Each must see identical contents.
	seen := map[string]int{}
	tc.Each(func(u tuple.Key, v []tuple.Tuple) { seen[string(u)] = len(v) })
	mc.Each(func(u tuple.Key, v []tuple.Tuple) {
		if n, ok := seen[string(u)]; !ok || n != len(v) {
			t.Fatalf("Each mismatch at key %q: %d vs %d", u, n, len(v))
		}
		delete(seen, string(u))
	})
	if len(seen) != 0 {
		t.Fatalf("tiered cache held %d extra keys", len(seen))
	}
	path := filepath.Join(dir, "cache.spill")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Tier.Close left spill file: %v", err)
	}
}

// Counted entries round-trip through demotion with mult and support intact.
func TestCacheTierCounted(t *testing.T) {
	dir := t.TempDir()
	tr, err := NewTier(filepath.Join(dir, "cache.spill"), 4096, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var mt, mm cost.Meter
	tc := New(32, 16, -1, &mt)
	mc := New(32, 16, -1, &mm)
	tc.AttachTier(tr)
	rng := rand.New(rand.NewSource(11))

	key := func(i int) tuple.Key { return tierKey(tuple.Value(i), 1) }
	for i := 0; i < 60; i++ {
		n := rng.Intn(8)
		tuples := make([]tuple.Tuple, n)
		mults := make([]int, n)
		supports := make([]int, n)
		for j := range tuples {
			tuples[j] = tuple.Tuple{tuple.Value(j), tuple.Value(i)}
			mults[j] = 1 + rng.Intn(3)
			supports[j] = 1 + rng.Intn(5)
		}
		tc.CreateCounted(key(i), tuples, mults, supports)
		mc.CreateCounted(key(i), tuples, mults, supports)
	}
	for step := 0; step < 2000; step++ {
		u := key(rng.Intn(60))
		r := tuple.Tuple{tuple.Value(rng.Intn(8)), tuple.Value(rng.Intn(60))}
		n := rng.Intn(3) - 1
		if n == 0 {
			n = 2
		}
		m := 1 + rng.Intn(3)
		tc.ApplyCountedDelta(u, r.Clone(), n, func() int { return m })
		mc.ApplyCountedDelta(u, r, n, func() int { return m })

		gv, gm, gok := tc.ProbeCountedBytes([]byte(u))
		wv, wm, wok := mc.ProbeCountedBytes([]byte(u))
		if gok != wok || len(gv) != len(wv) {
			t.Fatalf("step %d: ProbeCounted (%d,%v) vs (%d,%v)", step, len(gv), gok, len(wv), wok)
		}
		for i := range gv {
			if !gv[i].Equal(wv[i]) || gm[i] != wm[i] {
				t.Fatalf("step %d: element %d: %v×%d vs %v×%d", step, i, gv[i], gm[i], wv[i], wm[i])
			}
		}
		if tc.UsedBytes() != mc.UsedBytes() {
			t.Fatalf("step %d: used %d vs %d", step, tc.UsedBytes(), mc.UsedBytes())
		}
	}
	if mt.Total() != mm.Total() {
		t.Fatalf("meter totals diverge: %v vs %v", mt.Total(), mm.Total())
	}
	if _, demos := tr.Counters(); demos == 0 {
		t.Fatal("counted workload produced no demotions")
	}
}

// DetachTier rematerializes everything and leaves the cache untired.
func TestCacheTierDetach(t *testing.T) {
	dir := t.TempDir()
	tr, err := NewTier(filepath.Join(dir, "cache.spill"), 4096, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := New(16, 16, -1, &cost.Meter{})
	c.AttachTier(tr)
	for i := 0; i < 40; i++ {
		v := make([]tuple.Tuple, 10)
		for j := range v {
			v[j] = tuple.Tuple{tuple.Value(i), tuple.Value(j)}
		}
		c.Create(tierKey(tuple.Value(i), 2), v)
	}
	if c.ColdUsedBytes() == 0 {
		t.Fatal("nothing demoted before detach")
	}
	c.DetachTier()
	if c.ColdUsedBytes() != 0 || c.HotUsedBytes() != c.UsedBytes() {
		t.Fatalf("detach left cold bytes: cold %d hot %d used %d", c.ColdUsedBytes(), c.HotUsedBytes(), c.UsedBytes())
	}
	// Every page the spill ever handed out is free again: claiming that
	// many grows nothing.
	pages := tr.sp.Pages()
	for i := 0; i < pages; i++ {
		if _, err := tr.sp.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if grown := tr.sp.Pages() - pages; grown != 0 {
		t.Fatalf("detach leaked %d spill pages", grown)
	}
	n := 0
	c.Each(func(u tuple.Key, v []tuple.Tuple) { n += len(v) })
	if n == 0 {
		t.Fatal("entries lost on detach")
	}
}
