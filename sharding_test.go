package acache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"acache/internal/relation"
	"acache/internal/tuple"
)

// resultBag collects OnResult deltas into a multiset; the mutex makes it safe
// for emission from shard goroutines.
type resultBag struct {
	mu sync.Mutex
	m  map[string]int
}

func newResultBag() *resultBag { return &resultBag{m: make(map[string]int)} }

func (b *resultBag) hook() func(bool, []int64) {
	return func(insert bool, row []int64) {
		b.mu.Lock()
		b.m[fmt.Sprint(insert, row)]++
		b.mu.Unlock()
	}
}

func diffBags(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: delta %s seen %d times, want %d", label, k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected delta %s ×%d", label, k, n)
		}
	}
}

func storeBag(st *relation.Store) map[string]int {
	m := make(map[string]int)
	st.Scan(func(tp tuple.Tuple) bool {
		m[fmt.Sprint([]int64(tp))]++
		return true
	})
	return m
}

type appendOp struct {
	rel  string
	vals []int64
}

// randomOps builds a fixed random append workload over the given relations
// (sliding windows turn the appends into insert+expiry-delete streams, so the
// equivalence check covers deletions too).
func randomOps(seed int64, n int, rels []string, arities []int, domain int64) []appendOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]appendOp, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(len(rels))
		vals := make([]int64, arities[r])
		for j := range vals {
			vals[j] = rng.Int63n(domain)
		}
		ops = append(ops, appendOp{rels[r], vals})
	}
	return ops
}

// fiveWayStar joins five relations on a common attribute — the fully
// partitioned case: every relation is hash-partitioned on A, no broadcast.
func fiveWayStar() *Query {
	q := NewQuery()
	for i := 0; i < 5; i++ {
		q.WindowedRelation(fmt.Sprintf("R%d", i), 20, "A", "B")
	}
	for i := 1; i < 5; i++ {
		q.Join("R0.A", fmt.Sprintf("R%d.A", i))
	}
	return q
}

// checkShardedEquivalence drives the same workload through a serial engine
// and 1- and 4-shard sharded engines, then asserts identical result-delta
// multisets and identical final window contents per relation (merged across
// shards for partitioned relations, per-replica for broadcast ones).
func checkShardedEquivalence(t *testing.T, mkQuery func() *Query, ops []appendOp) {
	serial, err := mkQuery().Build(Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	serialBag := newResultBag()
	serial.OnResult(serialBag.hook())

	shardCounts := []int{1, 4}
	engines := make([]*ShardedEngine, len(shardCounts))
	bags := make([]*resultBag, len(shardCounts))
	for i, p := range shardCounts {
		eng, err := mkQuery().BuildSharded(Options{Seed: 21}, ShardOptions{Shards: p, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		engines[i] = eng
		bags[i] = newResultBag()
		eng.OnResult(bags[i].hook())
	}

	for _, op := range ops {
		serial.Append(op.rel, op.vals...)
		for _, eng := range engines {
			eng.Append(op.rel, op.vals...)
		}
	}
	for _, eng := range engines {
		eng.Flush()
	}

	for i, eng := range engines {
		label := fmt.Sprintf("P=%d", shardCounts[i])
		if want, got := serial.Stats().Outputs, eng.Stats().Outputs; got != want {
			t.Errorf("%s: outputs = %d, want %d", label, got, want)
		}
		diffBags(t, label+" results", serialBag.m, bags[i].m)

		for rel := range serial.q.names {
			name := serial.q.names[rel]
			want := storeBag(serial.core.Exec().Store(rel))
			if eng.plan.Covered(rel) {
				// Partitioned: shards hold disjoint slices whose union is
				// the serial window.
				got := make(map[string]int)
				for s := 0; s < eng.NumShards(); s++ {
					for k, n := range storeBag(eng.sh.Shard(s).Exec().Store(rel)) {
						got[k] += n
					}
				}
				diffBags(t, fmt.Sprintf("%s window %s (merged)", label, name), want, got)
			} else {
				// Broadcast: every shard holds an identical replica.
				for s := 0; s < eng.NumShards(); s++ {
					got := storeBag(eng.sh.Shard(s).Exec().Store(rel))
					diffBags(t, fmt.Sprintf("%s window %s (shard %d)", label, name, s), want, got)
				}
			}
			if got, want := eng.WindowLen(name), serial.WindowLen(name); got != want {
				t.Errorf("%s: WindowLen(%s) = %d, want %d", label, name, got, want)
			}
		}
	}
}

func TestShardedEquivalenceThreeWayChain(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 800
	}
	// R(A) ⋈ S(A,B) ⋈ T(B): no class covers all three relations, so the
	// planner partitions the largest class and broadcasts the rest.
	ops := randomOps(11, n, []string{"R", "S", "T"}, []int{1, 2, 1}, 25)
	checkShardedEquivalence(t, func() *Query { return threeWayDecl("") }, ops)
}

func TestShardedEquivalenceFiveWayStar(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 600
	}
	ops := randomOps(13, n,
		[]string{"R0", "R1", "R2", "R3", "R4"}, []int{2, 2, 2, 2, 2}, 8)
	checkShardedEquivalence(t, fiveWayStar, ops)
}

func TestShardedPlanShapes(t *testing.T) {
	chain, err := threeWayDecl("").BuildSharded(Options{}, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	if chain.NumShards() != 4 {
		t.Fatalf("chain NumShards = %d, want 4", chain.NumShards())
	}
	if desc := chain.Partitioning(); desc == "serial (P=1)" {
		t.Fatalf("chain unexpectedly serial: %s", desc)
	}

	star, err := fiveWayStar().BuildSharded(Options{}, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	for rel := 0; rel < 5; rel++ {
		if !star.plan.Covered(rel) {
			t.Errorf("star relation %d not partitioned", rel)
		}
	}

	// A P ≤ 1 request falls back to serial execution regardless of the
	// join graph.
	one, err := threeWayDecl("").BuildSharded(Options{}, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if one.NumShards() != 1 {
		t.Fatalf("P=1 NumShards = %d, want 1", one.NumShards())
	}
	if desc := one.Partitioning(); desc != "serial (P=1)" {
		t.Fatalf("P=1 Partitioning = %q", desc)
	}
}

// TestShardedStatsCarryAdaptivityCounters: the adaptivity counters survive
// both aggregation routes — the flushed total behind Stats and the per-shard
// ShardStats — instead of being dropped by a hand-copied field list. The
// per-shard sums must also agree with the total, field by field.
func TestShardedStatsCarryAdaptivityCounters(t *testing.T) {
	eng, err := fiveWayStar().BuildSharded(
		Options{ReoptInterval: 200, Seed: 31},
		ShardOptions{Shards: 2, BatchSize: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rels := []string{"R0", "R1", "R2", "R3", "R4"}
	for _, op := range randomOps(131, 6000, rels, []int{2, 2, 2, 2, 2}, 12) {
		eng.Append(op.rel, op.vals...)
	}
	total := eng.Stats()
	if total.Reopts == 0 {
		t.Fatalf("workload never re-optimized: %+v", total)
	}
	if total.ReoptNanos == 0 || total.SampledUpdates == 0 || total.CandidateRescores == 0 || total.WindowBytes == 0 {
		t.Errorf("Stats: Reopts=%d but ReoptNanos=%d SampledUpdates=%d CandidateRescores=%d WindowBytes=%d",
			total.Reopts, total.ReoptNanos, total.SampledUpdates, total.CandidateRescores, total.WindowBytes)
	}
	pick := func(s Stats) [5]int64 {
		return [5]int64{int64(s.Reopts), s.ReoptNanos, int64(s.SampledUpdates), int64(s.CandidateRescores), int64(s.WindowBytes)}
	}
	var sum [5]int64
	for _, s := range eng.ShardStats() {
		for i, v := range pick(s) {
			sum[i] += v
		}
	}
	if sum != pick(total) {
		t.Errorf("ShardStats do not add up to Stats (Reopts, ReoptNanos, SampledUpdates, CandidateRescores, WindowBytes): sum %v, total %v",
			sum, pick(total))
	}
}
