package acache

import (
	"math/rand"
	"testing"

	"acache/internal/memory"
)

func threeWayDecl(prefix string) *Query {
	return NewQuery().
		WindowedRelation(prefix+"R", 60, "A").
		WindowedRelation(prefix+"S", 60, "A", "B").
		WindowedRelation(prefix+"T", 60, "B").
		Join(prefix+"R.A", prefix+"S.A").
		Join(prefix+"S.B", prefix+"T.B")
}

func TestServerRegisterAndDeregister(t *testing.T) {
	s := NewServer(64 * 1024)
	a, err := s.Register("a", threeWayDecl("a"), Options{Seed: 1})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := s.Register("a", threeWayDecl("x"), Options{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if s.Engine("a") != a {
		t.Fatal("Engine lookup failed")
	}
	if _, err := s.Register("b", threeWayDecl("b"), Options{Seed: 2}); err != nil {
		t.Fatalf("Register b: %v", err)
	}
	if got := s.Queries(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Queries = %v", got)
	}
	s.Deregister("a")
	if s.Engine("a") != nil || len(s.Queries()) != 1 {
		t.Fatal("Deregister incomplete")
	}
	s.Deregister("a") // idempotent
}

// A deregistered engine is no longer the server's: feeding it must neither
// advance the server's rebalance cadence nor move the remaining query's grant.
// Query "a" registers after "w" has filled every store of the same streams,
// and a late registrant never adopts a warm store, so a's stores are private
// and the detached engine is still safe to feed.
func TestDeregisteredEngineLeavesServerAlone(t *testing.T) {
	s := NewServer(64 * 1024)
	s.RebalanceEvery = 10
	if _, err := s.Register("w", threeWayDecl("a"), Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	s.Append("aR", 1)
	s.Append("aS", 1, 1)
	s.Append("aT", 1)
	a, err := s.Register("a", threeWayDecl("a"), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().SharedStores; n != 0 {
		t.Fatalf("a shares %d stores, want 0", n)
	}
	if _, err := s.Register("b", threeWayDecl("b"), Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	s.Deregister("a")
	cadence, grant := s.sinceRebalance, s.Budgets()["b"]
	for i := int64(0); i < 7; i++ {
		a.Append("aR", i)
	}
	a.AppendBatch("aT", [][]int64{{1}, {2}})
	if s.sinceRebalance != cadence {
		t.Fatalf("appends to a deregistered engine moved the server's cadence %d → %d", cadence, s.sinceRebalance)
	}
	if got := s.Budgets()["b"]; got != grant {
		t.Fatalf("remaining query's grant moved %d → %d", grant, got)
	}
	sq, err := s.RegisterSharded("sq", threeWayDecl("s"), Options{Seed: 3}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Deregister("sq")
	if sq.server != nil {
		t.Fatal("a deregistered sharded engine still points at the server")
	}
}

func TestServerDividesBudgetByPriority(t *testing.T) {
	// Query "hot" has a high-benefit, small-footprint cache (few repeating
	// probe keys); query "cold" only benefits from negative caching over a
	// huge key domain — low benefit per byte. Under a budget too small for
	// both demands, the priority rule must satisfy hot's ask first.
	s := NewServer(3 * 1024)
	s.RebalanceEvery = 2_000
	hot, err := s.Register("hot", threeWayDecl("h"), Options{ReoptInterval: 2_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Register("cold", threeWayDecl("c"), Options{ReoptInterval: 2_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40_000; i++ {
		switch {
		case i%12 < 8:
			hot.Append("hT", rng.Int63n(25))
		case i%12 == 8:
			hot.Append("hR", rng.Int63n(25))
		case i%12 == 9:
			hot.Append("hS", rng.Int63n(25), rng.Int63n(25))
		case i%12 == 10:
			cold.Append("cT", rng.Int63n(1000))
		default:
			cold.Append("cR", 1_000_000+rng.Int63n(1000))
		}
	}
	if len(hot.Stats().UsedCaches) == 0 {
		t.Skip("hot query adopted no cache under this horizon; cannot judge the split")
	}
	_ = cold
	b := s.Budgets()
	if b["hot"] < b["cold"] {
		t.Fatalf("budget split inverted: hot granted %d bytes, cold %d bytes (hot caches: %v, cold: %v)",
			b["hot"], b["cold"], hot.Stats().UsedCaches, cold.Stats().UsedCaches)
	}
	if b["hot"] == 0 {
		t.Fatal("hot query starved of memory")
	}
	if b["hot"]+b["cold"] > 3*1024 {
		t.Fatalf("grants %v exceed the global budget", b)
	}
}

func TestServerUnlimitedBudget(t *testing.T) {
	s := NewServer(0) // unlimited
	eng, err := s.Register("q", threeWayDecl("q"), Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng.Append("qR", 1)
	s.Rebalance()
	s.SetBudget(16 * 1024)
	s.SetBudget(0)
}

func TestServerStatsAggregation(t *testing.T) {
	s := NewServer(16 * 1024)
	a, _ := s.Register("a", threeWayDecl("a"), Options{Seed: 7})
	a.Append("aR", 1)
	a.Append("aS", 1, 2)
	a.Append("aT", 2)
	st := s.Stats()
	if st["a"].Updates != 3 || st["a"].Outputs != 1 {
		t.Fatalf("stats = %+v", st["a"])
	}
}

func TestServerRebalanceGrantsArePageMultiples(t *testing.T) {
	s := NewServer(10 * memory.PageBytes)
	eng, _ := s.Register("q", threeWayDecl("q"), Options{Seed: 10})
	s.Rebalance()
	_ = eng
}

func TestServerHostsShardedQuery(t *testing.T) {
	s := NewServer(64 * 1024)
	sq, err := s.RegisterSharded("sq", threeWayDecl("s"), Options{Seed: 11}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Sharded("sq") != sq || s.Engine("sq") != nil {
		t.Fatal("sharded lookup failed")
	}
	if _, err := s.Register("sq", threeWayDecl("x"), Options{}); err == nil {
		t.Fatal("duplicate name across serial/sharded accepted")
	}
	serial, err := s.Register("plain", threeWayDecl("p"), Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2_000; i++ {
		sq.Append("sR", rng.Int63n(30))
		sq.Append("sS", rng.Int63n(30), rng.Int63n(30))
		sq.Append("sT", rng.Int63n(30))
		serial.Append("pR", rng.Int63n(30))
	}
	s.Rebalance()
	b := s.Budgets()
	if b["sq"] < 0 || b["plain"] < 0 {
		t.Fatalf("finite global budget granted unlimited memory: %v", b)
	}
	if b["sq"]+b["plain"] > 64*1024 {
		t.Fatalf("grants %v exceed the global budget", b)
	}
	st := s.Stats()
	if st["sq"].Updates == 0 {
		t.Fatal("sharded query stats missing")
	}
	s.Deregister("sq")
	if s.Sharded("sq") != nil || len(s.Queries()) != 1 {
		t.Fatal("sharded Deregister incomplete")
	}
}

// TestServerRebalanceAllocBudget pins the steady-state allocation count of
// the periodic rebalance path (the Server.tick → Rebalance loop every
// RebalanceEvery updates). The request slice, grant maps, and the memory
// manager's sort scratch are all reused, so a warm rebalance should allocate
// nothing; the budget leaves slack for map-growth noise but a regression
// back to per-call slice+map churn fails loudly — the same contract
// TestEngineInsertAllocBudget pins for the insert hot path.
func TestServerRebalanceAllocBudget(t *testing.T) {
	const budget = 4 // actual is 0 at steady state
	s := NewServer(32 * 1024)
	a, err := s.Register("a", threeWayDecl("a"), Options{ReoptInterval: 500, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register("b", threeWayDecl("b"), Options{ReoptInterval: 500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 4_000; i++ {
		a.Append("aR", rng.Int63n(20))
		a.Append("aS", rng.Int63n(20), rng.Int63n(20))
		b.Append("bT", rng.Int63n(20))
	}
	s.Rebalance() // warm the reused buffers
	if got := testing.AllocsPerRun(200, s.Rebalance); got > budget {
		t.Fatalf("warm Rebalance: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestServerStatsFilterTelemetry drives a miss-heavy workload — the regime
// the removed fingerprint filters short-circuited — and asserts the three
// filter fields of Stats, kept for the frozen benchmark surface, read zero
// through Server.Stats() while the query demonstrably probed and held state.
func TestServerStatsFilterTelemetry(t *testing.T) {
	s := NewServer(32 * 1024)
	eng, err := s.Register("q", threeWayDecl("q"), Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint key ranges per relation: nearly every probe misses.
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 3_000; i++ {
		eng.Append("qR", rng.Int63n(1000))
		eng.Append("qS", 10_000+rng.Int63n(1000), 20_000+rng.Int63n(1000))
		eng.Append("qT", 30_000+rng.Int63n(1000))
	}
	st := s.Stats()["q"]
	if st.Updates == 0 || st.WindowBytes == 0 {
		t.Fatalf("workload did not reach the engine: %d updates, %d window bytes", st.Updates, st.WindowBytes)
	}
	if st.Outputs != 0 {
		t.Fatalf("disjoint key ranges produced %d results", st.Outputs)
	}
	if st.FilteredProbes != 0 || st.FilterFalsePositives != 0 || st.FilterBytes != 0 {
		t.Fatalf("filter fields must read zero: %d short-circuits, %d false positives, %d bytes",
			st.FilteredProbes, st.FilterFalsePositives, st.FilterBytes)
	}
}
