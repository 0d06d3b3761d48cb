package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"acache/internal/core"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// chainQuery is R(A) ⋈_A S(A,B) ⋈_B T(B): two classes of degree 2, so the
// partition plan must pick class 0 ({R.A, S.A}) and broadcast T.
func chainQuery(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A"),
			tuple.RelationSchema(1, "A", "B"),
			tuple.RelationSchema(2, "B"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 1, Name: "B"}, Right: tuple.Attr{Rel: 2, Name: "B"}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// starQuery is R1(A) ⋈_A R2(A) ⋈_A R3(A): one class covering every relation,
// so every relation is partitioned and nothing is broadcast.
func starQuery(t *testing.T, n int) *query.Query {
	t.Helper()
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	for i := 0; i < n; i++ {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: i - 1, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	q, err := query.New(schemas, preds)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPlanPartitionsCommonClass(t *testing.T) {
	q := starQuery(t, 5)
	p := PlanPartitions(q, 4)
	if p.Shards != 4 || p.Class != 0 {
		t.Fatalf("plan = %v, want P=4 on class 0", p)
	}
	if p.NumBroadcast() != 0 {
		t.Fatalf("common-class plan broadcasts %d relations, want 0", p.NumBroadcast())
	}
	for rel := 0; rel < q.N(); rel++ {
		if !p.Covered(rel) {
			t.Errorf("relation %d not covered by common class", rel)
		}
	}
}

func TestPlanPartitionsBroadcastFallback(t *testing.T) {
	q := chainQuery(t)
	p := PlanPartitions(q, 4)
	if p.Shards != 4 || p.Class != 0 {
		t.Fatalf("plan = %v, want P=4 on class 0", p)
	}
	if !p.Covered(0) || !p.Covered(1) || p.Covered(2) {
		t.Fatalf("cover = %v, want R,S partitioned and T broadcast", p.KeyCols)
	}
	if p.NumBroadcast() != 1 {
		t.Fatalf("NumBroadcast = %d, want 1", p.NumBroadcast())
	}
}

func TestPlanPartitionsSerialFallback(t *testing.T) {
	q := chainQuery(t)
	p := PlanPartitions(q, 1)
	if p.Shards != 1 || p.Class != -1 {
		t.Fatalf("plan = %v, want serial fallback", p)
	}
}

func TestShardOfDeterministicRouting(t *testing.T) {
	q := starQuery(t, 3)
	p := PlanPartitions(q, 4)
	ins := stream.Update{Op: stream.Insert, Rel: 1, Tuple: tuple.Tuple{42}}
	del := stream.Update{Op: stream.Delete, Rel: 1, Tuple: tuple.Tuple{42}}
	if p.ShardOf(ins) != p.ShardOf(del) {
		t.Fatal("a tuple's delete must route to the same shard as its insert")
	}
	// All shards must be reachable over a modest domain.
	seen := make(map[int]bool)
	for v := int64(0); v < 64; v++ {
		seen[p.ShardOf(stream.Update{Rel: 0, Tuple: tuple.Tuple{v}})] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 shards hit over 64 values", len(seen))
	}
}

func mkEngine(q *query.Query) func(int) (*core.Engine, error) {
	return func(i int) (*core.Engine, error) {
		return core.NewEngine(q, nil, core.Config{Seed: int64(1 + i)})
	}
}

// driveBoth replays the same windowed update sequence through a serial core
// engine and a sharded engine and returns (serial outputs, sharded outputs).
func driveBoth(t *testing.T, q *query.Query, shards, appends int, arity func(rel int) int) (uint64, uint64) {
	t.Helper()
	serial, err := core.NewEngine(q, nil, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(PlanPartitions(q, shards), Options{BatchSize: 16}, mkEngine(q))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	rng := rand.New(rand.NewSource(7))
	wins := make([]*stream.SlidingWindow, q.N())
	for i := range wins {
		wins[i] = stream.NewSlidingWindow(20)
	}
	seq := uint64(0)
	for i := 0; i < appends; i++ {
		rel := rng.Intn(q.N())
		vals := make(tuple.Tuple, arity(rel))
		for j := range vals {
			vals[j] = rng.Int63n(30)
		}
		for _, u := range wins[rel].Append(vals) {
			u.Rel = rel
			seq++
			u.Seq = seq
			serial.Process(u)
			sharded.Offer(u)
		}
	}
	return serial.Snapshot().Outputs, sharded.Snapshot().Outputs
}

func TestShardedOutputsMatchSerialStar(t *testing.T) {
	q := starQuery(t, 3)
	s, sh := driveBoth(t, q, 4, 600, func(int) int { return 1 })
	if s != sh {
		t.Fatalf("outputs: serial %d, sharded %d", s, sh)
	}
	if s == 0 {
		t.Fatal("workload produced no results; test is vacuous")
	}
}

func TestShardedOutputsMatchSerialBroadcast(t *testing.T) {
	q := chainQuery(t)
	arity := func(rel int) int {
		if rel == 1 {
			return 2
		}
		return 1
	}
	s, sh := driveBoth(t, q, 4, 600, arity)
	if s != sh {
		t.Fatalf("outputs: serial %d, sharded %d", s, sh)
	}
	if s == 0 {
		t.Fatal("workload produced no results; test is vacuous")
	}
}

func TestMergedOnResultPreservesPerShardCounts(t *testing.T) {
	q := starQuery(t, 3)
	sharded, err := New(PlanPartitions(q, 4), Options{BatchSize: 8}, mkEngine(q))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	var mu sync.Mutex
	got := 0
	sharded.OnResult(func(ins bool, vals []tuple.Value) {
		mu.Lock()
		got++
		mu.Unlock()
		if len(vals) != 3 {
			t.Errorf("result width %d, want 3", len(vals))
		}
	})
	rng := rand.New(rand.NewSource(3))
	seq := uint64(0)
	for i := 0; i < 400; i++ {
		seq++
		sharded.Offer(stream.Update{
			Op:    stream.Insert,
			Rel:   i % 3,
			Tuple: tuple.Tuple{rng.Int63n(20)},
			Seq:   seq,
		})
	}
	want := sharded.Snapshot().Outputs // flushes
	mu.Lock()
	defer mu.Unlock()
	if uint64(got) != want {
		t.Fatalf("callback saw %d results, engine counted %d", got, want)
	}
}

func TestFlushQuiescesAndSumsSnapshots(t *testing.T) {
	q := starQuery(t, 3)
	sharded, err := New(PlanPartitions(q, 2), Options{BatchSize: 64}, mkEngine(q))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for i := 0; i < 100; i++ {
		sharded.Offer(stream.Update{Op: stream.Insert, Rel: i % 3, Tuple: tuple.Tuple{int64(i % 10)}})
	}
	snap := sharded.Snapshot()
	if snap.Updates != 100 {
		t.Fatalf("snapshot saw %d updates, want 100", snap.Updates)
	}
	if got := sharded.Shard(0).Snapshot().Updates + sharded.Shard(1).Snapshot().Updates; got != 100 {
		t.Fatalf("per-shard updates sum to %d, want 100", got)
	}
}

// TestSumSnapshotsCoversEveryField guards the shard total against silently
// dropping a core.Snapshot field: two snapshots carry a distinct non-zero
// value in every field, and each must come out of sumSnapshots as the sum
// (counters, and the per-shard footprint gauges) or the disjunction (flags).
// A field of a new kind fails the test until it is given a rule here.
func TestSumSnapshotsCoversEveryField(t *testing.T) {
	var a, b core.Snapshot
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch fa, fb := va.Field(i), vb.Field(i); fa.Kind() {
		case reflect.Int, reflect.Int64:
			fa.SetInt(int64(i + 1))
			fb.SetInt(int64(1000 + i))
		case reflect.Uint64:
			fa.SetUint(uint64(i + 1))
			fb.SetUint(uint64(1000 + i))
		case reflect.Bool:
			fb.SetBool(true)
		default:
			t.Fatalf("core.Snapshot.%s has kind %s: give it a summation rule in sumSnapshots and here",
				va.Type().Field(i).Name, fa.Kind())
		}
	}
	total := reflect.ValueOf(sumSnapshots([]core.Snapshot{a, b}))
	for i := 0; i < total.NumField(); i++ {
		name, fa, fb, f := total.Type().Field(i).Name, va.Field(i), vb.Field(i), total.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			if f.Int() != fa.Int()+fb.Int() {
				t.Errorf("%s = %d, want the sum %d", name, f.Int(), fa.Int()+fb.Int())
			}
		case reflect.Uint64:
			if f.Uint() != fa.Uint()+fb.Uint() {
				t.Errorf("%s = %d, want the sum %d", name, f.Uint(), fa.Uint()+fb.Uint())
			}
		case reflect.Bool:
			if !f.Bool() {
				t.Errorf("%s = false, want true (set in one shard)", name)
			}
		}
	}
}
