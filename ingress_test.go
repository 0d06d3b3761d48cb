package acache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// conformanceQuery declares one relation of each window kind: C count-based,
// P per-partition (partitioned by K), T time-based, U unbounded. A joins C, P
// and U — a class a 4-shard plan partitions on — while T hangs off C.B and is
// broadcast.
func conformanceQuery() *Query {
	return NewQuery().
		WindowedRelation("C", 12, "A", "B").
		PartitionedRelation("P", "K", 3, "A", "K").
		TimeWindowedRelation("T", 6, "B").
		Relation("U", "A").
		Join("C.A", "P.A").
		Join("P.A", "U.A").
		Join("C.B", "T.B")
}

// ingressDriver is the six ingress entry points, for the engine kinds whose
// result counts the test does not need.
type ingressDriver interface {
	Append(rel string, values ...int64)
	AppendBatch(rel string, rows [][]int64)
	AppendAt(rel string, ts int64, values ...int64)
	AdvanceTime(ts int64)
	Insert(rel string, values ...int64)
	Delete(rel string, values ...int64)
}

// serialDriver drops the serial engine's per-call result counts.
type serialDriver struct{ e *Engine }

func (d serialDriver) Append(rel string, v ...int64)             { d.e.Append(rel, v...) }
func (d serialDriver) AppendBatch(rel string, rows [][]int64)    { d.e.AppendBatch(rel, rows) }
func (d serialDriver) AppendAt(rel string, ts int64, v ...int64) { d.e.AppendAt(rel, ts, v...) }
func (d serialDriver) AdvanceTime(ts int64)                      { d.e.AdvanceTime(ts) }
func (d serialDriver) Insert(rel string, v ...int64)             { d.e.Insert(rel, v...) }
func (d serialDriver) Delete(rel string, v ...int64)             { d.e.Delete(rel, v...) }

// driveIngress feeds one seeded mix of all six entry points. Every op draws
// its values before dispatch, so all engines see identical calls.
func driveIngress(seed int64, n int, d ingressDriver) {
	rng := rand.New(rand.NewSource(seed))
	var clock int64
	var held [][]int64 // U tuples inserted and not yet deleted
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 3:
			d.Append("C", rng.Int63n(6), rng.Int63n(5))
		case op == 3:
			d.Append("P", rng.Int63n(6), rng.Int63n(3))
		case op == 4:
			rows := make([][]int64, 1+rng.Intn(20))
			rel := "C"
			if rng.Intn(2) == 0 {
				rel = "P"
			}
			for j := range rows {
				if rel == "C" {
					rows[j] = []int64{rng.Int63n(6), rng.Int63n(5)}
				} else {
					rows[j] = []int64{rng.Int63n(6), rng.Int63n(3)}
				}
			}
			d.AppendBatch(rel, rows)
		case op == 5:
			clock += rng.Int63n(3)
			d.AppendAt("T", clock, rng.Int63n(5))
		case op == 6:
			clock += rng.Int63n(4)
			d.AdvanceTime(clock)
		case op == 7 || len(held) == 0:
			v := []int64{rng.Int63n(6)}
			held = append(held, v)
			d.Insert("U", v...)
		default:
			k := rng.Intn(len(held))
			d.Delete("U", held[k]...)
			held = append(held[:k], held[k+1:]...)
		}
	}
}

// TestIngressConformance: the serial engine and 1- and 4-shard sharded
// engines, fed the same calls through all six ingress entry points over every
// window kind, agree on the result-delta multiset, Outputs, Updates (the
// ingress sequence) and every relation's WindowLen.
func TestIngressConformance(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1500
	}
	serial, err := conformanceQuery().Build(Options{Seed: 5, ReoptInterval: 500})
	if err != nil {
		t.Fatal(err)
	}
	want := newResultBag()
	serial.OnResult(want.hook())
	driveIngress(41, n, serialDriver{serial})
	ws := serial.Stats()
	if ws.Outputs == 0 {
		t.Fatal("workload produced no results")
	}
	for _, p := range []int{1, 4} {
		eng, err := conformanceQuery().BuildSharded(Options{Seed: 5, ReoptInterval: 500}, ShardOptions{Shards: p, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if p == 4 && eng.plan.Covered(2) {
			t.Fatalf("P=4 plan partitions T: %s", eng.Partitioning())
		}
		got := newResultBag()
		eng.OnResult(got.hook())
		driveIngress(41, n, eng)
		eng.Flush()
		label := fmt.Sprintf("P=%d", p)
		diffBags(t, label+" results", want.m, got.m)
		gs := eng.Stats()
		if gs.Outputs != ws.Outputs || gs.Updates != ws.Updates {
			t.Errorf("%s: Outputs/Updates = %d/%d, want %d/%d", label, gs.Outputs, gs.Updates, ws.Outputs, ws.Updates)
		}
		for _, rel := range []string{"C", "P", "T", "U"} {
			if g, w := eng.WindowLen(rel), serial.WindowLen(rel); g != w {
				t.Errorf("%s: WindowLen(%s) = %d, want %d", label, rel, g, w)
			}
		}
	}
}

// TestShardedRendererMatchesSerial: a P = 1 sharded engine's shard 0 keeps
// the serial seed and its batch path is state-equivalent, so below the
// partitioning and shard headers its DescribePlan and Explain must read
// exactly as the serial engine's — with at least one cache adopted.
func TestShardedRendererMatchesSerial(t *testing.T) {
	opts := Options{ReoptInterval: 2_000, Seed: 19}
	serial, err := threeWayWindowed().Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := threeWayWindowed().BuildSharded(opts, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 30_000; i++ {
		rel, vals := "T", []int64{rng.Int63n(30)}
		switch {
		case i%12 == 10:
			rel = "R"
		case i%12 == 11:
			rel, vals = "S", append(vals, rng.Int63n(30))
		}
		serial.Append(rel, vals...)
		sh.Append(rel, vals...)
	}
	if len(serial.Stats().UsedCaches) == 0 {
		t.Fatal("no cache adopted")
	}
	plan := strings.TrimPrefix(sh.DescribePlan(), sh.Partitioning()+"\n— shard 0 —\n")
	if want := serial.DescribePlan(); plan != want {
		t.Errorf("P=1 DescribePlan body:\n%s\nwant:\n%s", plan, want)
	}
	explain := strings.TrimPrefix(sh.Explain(), "— shard 0 —\n")
	if want := serial.Explain(); explain != want {
		t.Errorf("P=1 Explain body:\n%s\nwant:\n%s", explain, want)
	}
}

// threeWayWindowed is TestExplain's query: R(A) ⋈ S(A,B) ⋈ T(B), windows of 60.
func threeWayWindowed() *Query {
	return NewQuery().
		WindowedRelation("R", 60, "A").
		WindowedRelation("S", 60, "A", "B").
		WindowedRelation("T", 60, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B")
}
