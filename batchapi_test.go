package acache

import (
	"fmt"
	"math/rand"
	"testing"
)

// Batch-ingestion API tests: AppendBatch must leave the engine with the same
// result multiset and window state as appending the same rows one by one.
// (The delta sequence legitimately differs — the grouped window schedule
// reorders expiries ahead of inserts within a batch — so comparisons are on
// multisets and final state, not sequences.)

// resultCounter tallies result deltas as a multiset: inserts count up,
// retractions count down.
func resultCounter(m map[string]int) func(bool, []int64) {
	return func(insert bool, row []int64) {
		k := fmt.Sprint(row)
		if insert {
			m[k]++
		} else {
			m[k]--
		}
	}
}

func diffCounts(t *testing.T, label string, serial, batched map[string]int) {
	t.Helper()
	for k, n := range serial {
		if batched[k] != n {
			t.Fatalf("%s: result %s: serial count %d, batch count %d", label, k, n, batched[k])
		}
	}
	for k, n := range batched {
		if serial[k] != n {
			t.Fatalf("%s: result %s: batch count %d, serial count %d", label, k, n, serial[k])
		}
	}
}

func windowedThreeWay(t *testing.T, window int) *Engine {
	t.Helper()
	eng, err := NewQuery().
		WindowedRelation("R", window, "A").
		WindowedRelation("S", window, "A", "B").
		WindowedRelation("T", window, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 400, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// burstRows generates the shared row stream: bursts of rows per relation,
// rotating relations, values drawn from a small domain so joins fire.
func burstRows(nRounds, burst int, arities []int, seed int64) [][][]int64 {
	rng := rand.New(rand.NewSource(seed))
	rounds := make([][][]int64, 0, nRounds)
	for r := 0; r < nRounds; r++ {
		rows := make([][]int64, burst)
		for i := range rows {
			row := make([]int64, arities[r%len(arities)])
			for c := range row {
				row[c] = rng.Int63n(8)
			}
			rows[i] = row
		}
		rounds = append(rounds, rows)
	}
	return rounds
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	names := []string{"R", "S", "T"}
	arities := []int{1, 2, 1}
	rounds := burstRows(120, 12, arities, 31)

	serial := windowedThreeWay(t, 16)
	serialRes := make(map[string]int)
	serial.OnResult(resultCounter(serialRes))
	serialTotal := 0
	for r, rows := range rounds {
		for _, row := range rows {
			serialTotal += serial.Append(names[r%3], row...)
		}
	}

	batched := windowedThreeWay(t, 16)
	batchRes := make(map[string]int)
	batched.OnResult(resultCounter(batchRes))
	batchTotal := 0
	for r, rows := range rounds {
		batchTotal += batched.AppendBatch(names[r%3], rows)
	}

	if serialTotal != batchTotal {
		t.Fatalf("total deltas: serial %d, batch %d", serialTotal, batchTotal)
	}
	if s, b := serial.Stats(), batched.Stats(); s.Outputs != b.Outputs || s.Updates != b.Updates {
		t.Fatalf("stats diverge: serial %+v, batch %+v", s, b)
	}
	for _, n := range names {
		if serial.WindowLen(n) != batched.WindowLen(n) {
			t.Fatalf("window %s: serial %d, batch %d", n, serial.WindowLen(n), batched.WindowLen(n))
		}
	}
	diffCounts(t, "three-way", serialRes, batchRes)
}

func TestAppendBatchPartitionedMatchesAppend(t *testing.T) {
	build := func() *Engine {
		eng, err := NewQuery().
			PartitionedRelation("L", "K", 3, "K", "V").
			WindowedRelation("R", 8, "K").
			Join("L.K", "R.K").
			Build(Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	rng := rand.New(rand.NewSource(41))
	rounds := make([][][]int64, 60)
	for r := range rounds {
		rows := make([][]int64, 10)
		for i := range rows {
			// 3 partitions, 10 rows per batch: single batches overflow a
			// partition's 3-row window (the degenerate grouped-schedule case).
			rows[i] = []int64{rng.Int63n(3), rng.Int63n(50)}
		}
		rounds[r] = rows
	}

	serial, batched := build(), build()
	serialRes, batchRes := make(map[string]int), make(map[string]int)
	serial.OnResult(resultCounter(serialRes))
	batched.OnResult(resultCounter(batchRes))
	for _, rows := range rounds {
		for _, row := range rows {
			serial.Append("L", row...)
		}
		batched.AppendBatch("L", rows)
		rrow := []int64{rng.Int63n(3)}
		serial.Append("R", rrow...)
		batched.AppendBatch("R", [][]int64{rrow})
	}
	if s, b := serial.Stats(), batched.Stats(); s.Outputs != b.Outputs {
		t.Fatalf("outputs diverge: serial %+v, batch %+v", s, b)
	}
	if serial.WindowLen("L") != batched.WindowLen("L") {
		t.Fatalf("window L: serial %d, batch %d", serial.WindowLen("L"), batched.WindowLen("L"))
	}
	diffCounts(t, "partitioned", serialRes, batchRes)
}

func TestShardedAppendBatchMatchesSerial(t *testing.T) {
	q := func() *Query {
		return NewQuery().
			WindowedRelation("A", 20, "K").
			WindowedRelation("B", 20, "K").
			WindowedRelation("C", 20, "K").
			Join("A.K", "B.K").
			Join("B.K", "C.K")
	}
	serial, err := q().Build(Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := q().BuildSharded(Options{Seed: 3}, ShardOptions{Shards: 4, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	serialRes, shardRes := make(map[string]int), make(map[string]int)
	serial.OnResult(resultCounter(serialRes))
	sharded.OnResult(resultCounter(shardRes))

	names := []string{"A", "B", "C"}
	rounds := burstRows(90, 8, []int{1, 1, 1}, 77)
	for r, rows := range rounds {
		serial.AppendBatch(names[r%3], rows)
		sharded.AppendBatch(names[r%3], rows)
	}
	sst := sharded.Stats() // flushes
	if got, want := sst.Outputs, serial.Stats().Outputs; got != want {
		t.Fatalf("outputs: sharded %d, serial %d", got, want)
	}
	for _, n := range names {
		if got, want := sharded.WindowLen(n), serial.WindowLen(n); got != want {
			t.Fatalf("window %s: sharded %d, serial %d", n, got, want)
		}
	}
	diffCounts(t, "sharded", serialRes, shardRes)

	per := sharded.ShardStats()
	if len(per) != sharded.NumShards() {
		t.Fatalf("ShardStats returned %d entries for %d shards", len(per), sharded.NumShards())
	}
	var sumOut uint64
	var sumUpd uint64
	for _, s := range per {
		sumOut += s.Outputs
		sumUpd += s.Updates
	}
	if sumOut != sst.Outputs {
		t.Fatalf("per-shard outputs sum %d, aggregate %d", sumOut, sst.Outputs)
	}
	if sumUpd == 0 {
		t.Fatal("per-shard update counts all zero")
	}
}
