package acache

import (
	"fmt"
	"math/rand"
	"testing"
)

// sharedDecl declares the canonical 3-way chain R ⋈ S ⋈ T over count windows
// — every test query over the same stream names, so registered copies overlap
// completely and share window stores.
func sharedDecl(win int) *Query {
	return NewQuery().
		WindowedRelation("R", win, "A").
		WindowedRelation("S", win, "A", "B").
		WindowedRelation("T", win, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B")
}

// resultLog records an engine's emitted deltas in order.
type resultLog struct {
	rows []string
}

func (l *resultLog) attach(e *Engine) {
	e.OnResult(func(insert bool, row []int64) {
		l.rows = append(l.rows, fmt.Sprintf("%v:%v", insert, row))
	})
}

// driveShared feeds n tuples per stream: updates to the server (which fans
// out in lockstep) and, in the same order, to each isolated twin.
func driveShared(s *Server, twins []*Engine, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a, b := rng.Int63n(40), rng.Int63n(40)
		switch i % 3 {
		case 0:
			s.Append("R", a)
			for _, tw := range twins {
				tw.Append("R", a)
			}
		case 1:
			s.Append("S", a, b)
			for _, tw := range twins {
				tw.Append("S", a, b)
			}
		default:
			s.Append("T", b)
			for _, tw := range twins {
				tw.Append("T", b)
			}
		}
	}
}

// TestServerSharingDifferential registers 3 identical queries on one server
// (shared window stores, pooled cache accounting) and runs isolated twin
// engines beside them: per-query results, window contents, and simulated
// cost totals must be bit-identical, shared or not. Options vary per query
// where charge identity permits (filters off for one sharer would change the
// store key, so filter mode stays uniform; seeds vary freely).
func TestServerSharingDifferential(t *testing.T) {
	s := NewServer(0) // unlimited: grants can't diverge between setups
	s.RebalanceEvery = 0
	names := []string{"q0", "q1", "q2"}
	opts := []Options{
		{Seed: 1, ReoptInterval: 500},
		{Seed: 2, ReoptInterval: 700},
		{Seed: 3, ReoptInterval: 500, DisableGlobalCaches: true},
	}
	var hosted, twins []*Engine
	var hostedLogs, twinLogs []*resultLog
	for i, name := range names {
		eng, err := s.Register(name, sharedDecl(48), opts[i])
		if err != nil {
			t.Fatal(err)
		}
		lg := &resultLog{}
		lg.attach(eng)
		hosted = append(hosted, eng)
		hostedLogs = append(hostedLogs, lg)

		tw, err := sharedDecl(48).Build(opts[i])
		if err != nil {
			t.Fatal(err)
		}
		lg = &resultLog{}
		lg.attach(tw)
		twins = append(twins, tw)
		twinLogs = append(twinLogs, lg)
	}
	if st := s.Stats()["q1"]; st.SharedStores != 3 || st.SharerCount != 3 {
		t.Fatalf("q1 shares %d stores with max %d sharers, want 3 and 3", st.SharedStores, st.SharerCount)
	}

	driveShared(s, twins, 6_000, 11)

	for i, name := range names {
		hs, ts := hosted[i].Stats(), twins[i].Stats()
		if hs.Outputs != ts.Outputs || hs.WorkSeconds != ts.WorkSeconds {
			t.Fatalf("%s diverged from isolated twin: outputs %d vs %d, work %.6f vs %.6f",
				name, hs.Outputs, ts.Outputs, hs.WorkSeconds, ts.WorkSeconds)
		}
		if hs.Updates != ts.Updates {
			t.Fatalf("%s processed %d updates, twin %d", name, hs.Updates, ts.Updates)
		}
		for _, rel := range []string{"R", "S", "T"} {
			if hl, tl := hosted[i].WindowLen(rel), twins[i].WindowLen(rel); hl != tl {
				t.Fatalf("%s window %s holds %d tuples, twin holds %d", name, rel, hl, tl)
			}
		}
		h, tw := hostedLogs[i], twinLogs[i]
		if len(h.rows) != len(tw.rows) {
			t.Fatalf("%s emitted %d deltas, twin %d", name, len(h.rows), len(tw.rows))
		}
		for j := range h.rows {
			if h.rows[j] != tw.rows[j] {
				t.Fatalf("%s delta %d: %s vs twin %s", name, j, h.rows[j], tw.rows[j])
			}
		}
	}
}

// TestServerSharingTeardown checks refcounted teardown mid-stream: one
// sharer deregisters, the remaining sharers keep identical results; the last
// sharer's departure empties the registry.
func TestServerSharingTeardown(t *testing.T) {
	s := NewServer(0)
	s.RebalanceEvery = 0
	var twins []*Engine
	var hostedLogs, twinLogs []*resultLog
	for i, name := range []string{"q0", "q1", "q2"} {
		opt := Options{Seed: int64(i + 1), ReoptInterval: 400}
		eng, err := s.Register(name, sharedDecl(32), opt)
		if err != nil {
			t.Fatal(err)
		}
		lg := &resultLog{}
		lg.attach(eng)
		hostedLogs = append(hostedLogs, lg)
		tw, err := sharedDecl(32).Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		tlg := &resultLog{}
		tlg.attach(tw)
		twins = append(twins, tw)
		twinLogs = append(twinLogs, tlg)
	}
	driveShared(s, twins, 1_500, 7)

	// q1 leaves mid-stream; q0 and q2 must be undisturbed.
	s.Deregister("q1")
	if len(s.shares) == 0 {
		t.Fatal("registry emptied while two sharers remain")
	}
	for _, ent := range s.shares {
		if got := len(ent.sharers); got != 2 {
			t.Fatalf("store %s has %d sharers after one deregistered, want 2", ent.key, got)
		}
	}
	twins = []*Engine{twins[0], twins[2]}
	driveShared(s, twins, 1_500, 8)

	for i, name := range []string{"q0", "q2"} {
		eng := s.Engine(name)
		h := hostedLogs[[]int{0, 2}[i]]
		tw := twinLogs[[]int{0, 2}[i]]
		hs, ts := eng.Stats(), twins[i].Stats()
		if hs.Outputs != ts.Outputs || hs.WorkSeconds != ts.WorkSeconds {
			t.Fatalf("%s diverged after teardown: outputs %d vs %d, work %.6f vs %.6f",
				name, hs.Outputs, ts.Outputs, hs.WorkSeconds, ts.WorkSeconds)
		}
		if len(h.rows) != len(tw.rows) {
			t.Fatalf("%s emitted %d deltas, twin %d", name, len(h.rows), len(tw.rows))
		}
		for _, rel := range []string{"R", "S", "T"} {
			if hl, tl := eng.WindowLen(rel), twins[i].WindowLen(rel); hl != tl {
				t.Fatalf("%s window %s holds %d tuples, twin holds %d", name, rel, hl, tl)
			}
		}
	}

	// Last sharers leave: the registry must release everything.
	s.Deregister("q0")
	s.Deregister("q2")
	if len(s.shares) != 0 {
		t.Fatalf("registry holds %d entries after every sharer deregistered", len(s.shares))
	}
}

// TestServerSharingReleasesMemoryToRebalance checks the budget view: while
// two queries share stores, only the first carries the stores' filter bytes
// in its request; after the carrier leaves, the remaining query carries them
// itself — and a fresh registration can adopt nothing from a warm store.
func TestServerSharingReleasesMemoryToRebalance(t *testing.T) {
	s := NewServer(64 * 1024)
	s.RebalanceEvery = 0
	if _, err := s.Register("a", sharedDecl(32), Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", sharedDecl(32), Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats()["b"].SharedStores; got != 3 {
		t.Fatalf("b shares %d stores, want 3", got)
	}
	for i := 0; i < 200; i++ {
		s.Append("R", int64(i%10))
		s.Append("S", int64(i%10), int64(i%7))
		s.Append("T", int64(i%7))
	}
	saved := s.Stats()["b"].SharedBytesSaved
	if saved <= 0 {
		t.Fatal("second sharer reports no bytes saved over warm shared stores")
	}
	s.Deregister("a")
	if got := s.Stats()["b"].SharedBytesSaved; got != 0 {
		t.Fatalf("sole remaining sharer still reports %d bytes saved", got)
	}
	// A late registration over the warm store must fall back to a private
	// store (ring order cannot be reconstructed) — and still work.
	c, err := s.Register("c", sharedDecl(32), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SharedStores; got != 0 {
		t.Fatalf("late registrant adopted %d warm stores, want 0", got)
	}
	s.Append("R", 1)
	s.Rebalance() // exercises pooled accounting with mixed private/shared
}

// TestServerSharingIneligibility checks the gates: queries with differing
// windows or filter modes never share stores.
func TestServerSharingIneligibility(t *testing.T) {
	s := NewServer(0)
	if _, err := s.Register("base", sharedDecl(32), Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("window", sharedDecl(64), Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("nofilter", sharedDecl(32), Options{Seed: 4, DisableFilters: true}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// Differing windows or filter modes get distinct registry keys: each
	// becomes the sole registrant of its own shareable stores.
	for _, name := range []string{"window", "nofilter"} {
		if st[name].SharerCount != 1 {
			t.Fatalf("%s has %d sharers, want 1 (distinct store key)", name, st[name].SharerCount)
		}
	}
	if st["base"].SharedStores != 3 {
		t.Fatalf("base shares %d stores, want 3 (alone, as first registrant)", st["base"].SharedStores)
	}
	if st["base"].SharerCount != 1 {
		t.Fatalf("base SharerCount = %d, want 1", st["base"].SharerCount)
	}
}

// TestServerSharingShardedDifferential registers a serial and a sharded copy
// of the query: the sharded engine never shares stores physically but must
// produce identical aggregate outputs, and the serial engines around it stay
// bit-identical to isolation.
func TestServerSharingShardedDifferential(t *testing.T) {
	s := NewServer(0)
	s.RebalanceEvery = 0
	opt := Options{Seed: 1, ReoptInterval: 500}
	eng, err := s.Register("serial", sharedDecl(48), opt)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.RegisterSharded("sharded", sharedDecl(48), Options{Seed: 1, ReoptInterval: 500}, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Deregister("sharded")
	tw, err := sharedDecl(48).Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats()["sharded"].SharedStores; got != 0 {
		t.Fatalf("sharded engine claims %d shared stores, want 0", got)
	}

	driveShared(s, []*Engine{tw}, 4_000, 9)
	sh.Flush()

	hs, ts := eng.Stats(), tw.Stats()
	if hs.Outputs != ts.Outputs || hs.WorkSeconds != ts.WorkSeconds {
		t.Fatalf("serial engine diverged beside a sharded tenant: outputs %d vs %d, work %.6f vs %.6f",
			hs.Outputs, ts.Outputs, hs.WorkSeconds, ts.WorkSeconds)
	}
	if got := sh.Stats().Outputs; got != ts.Outputs {
		t.Fatalf("sharded copy emitted %d outputs, serial %d", got, ts.Outputs)
	}
}

// TestServerSharingLockstepViolationPanics drives one sharer ahead of the
// other through Engine.Append directly (bypassing Server.Append's
// interleaving): the follower must refuse to proceed rather than charge a
// divergent tariff, directing the caller at Server.Append.
func TestServerSharingLockstepViolationPanics(t *testing.T) {
	s := NewServer(0)
	s.RebalanceEvery = 0
	a, err := s.Register("a", sharedDecl(4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register("b", sharedDecl(4), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fill R's window so an append emits delete+insert: the leader applies
	// two shared updates back to back, putting the follower at lag 2.
	for i := 0; i < 4; i++ {
		s.Append("R", int64(i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("follower processed a shared stream at lag 2 without panicking")
		}
	}()
	a.Append("R", 99) // leader: del+ins, two updates ahead
	b.Append("R", 99) // follower: first update already at lag 2 → panic
}

// TestServerSharingTelemetry checks the Snapshot → Stats → Server.Stats
// telemetry chain: SharedStores, SharerCount, SharedBytesSaved, WindowBytes,
// and pooled SharedCaches all surface.
func TestServerSharingTelemetry(t *testing.T) {
	s := NewServer(0)
	s.RebalanceEvery = 0
	opt := Options{Seed: 1, ReoptInterval: 300}
	if _, err := s.Register("a", sharedDecl(32), opt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", sharedDecl(32), Options{Seed: 2, ReoptInterval: 300}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4_000; i++ {
		v, w := rng.Int63n(8), rng.Int63n(8)
		switch i % 3 {
		case 0:
			s.Append("R", v)
		case 1:
			s.Append("S", v, w)
		default:
			s.Append("T", w)
		}
	}
	st := s.Stats()
	a, b := st["a"], st["b"]
	if a.SharedStores != 3 || b.SharedStores != 3 {
		t.Fatalf("SharedStores = %d/%d, want 3/3", a.SharedStores, b.SharedStores)
	}
	if a.SharerCount != 2 || b.SharerCount != 2 {
		t.Fatalf("SharerCount = %d/%d, want 2/2", a.SharerCount, b.SharerCount)
	}
	if a.WindowBytes <= 0 || a.WindowBytes != b.WindowBytes {
		t.Fatalf("WindowBytes = %d/%d, want equal and positive", a.WindowBytes, b.WindowBytes)
	}
	if a.SharedBytesSaved != 0 {
		t.Fatalf("first registrant reports %d bytes saved; it carries the stores", a.SharedBytesSaved)
	}
	if b.SharedBytesSaved <= 0 {
		t.Fatal("second sharer reports no bytes saved")
	}
	// Identical queries with identical seeds select identical caches, so any
	// used cache must pool. With different seeds selection may diverge; only
	// assert consistency: SharedCaches equal on both when both use caches.
	if a.SharedCaches != b.SharedCaches && a.CacheMemoryBytes > 0 && b.CacheMemoryBytes > 0 &&
		len(a.UsedCaches) == len(b.UsedCaches) {
		t.Fatalf("SharedCaches = %d/%d for identical cache sets", a.SharedCaches, b.SharedCaches)
	}
}
