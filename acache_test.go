package acache

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"acache/internal/oracle"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

func buildThreeWay(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := NewQuery().
		Relation("R", "A").
		Relation("S", "A", "B").
		Relation("T", "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return eng
}

func TestQuickstartScenario(t *testing.T) {
	eng := buildThreeWay(t, Options{})
	for _, v := range []int64{0, 1, 2} {
		eng.Insert("R", v)
	}
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {3, 6}} {
		eng.Insert("S", p[0], p[1])
	}
	for _, v := range []int64{2, 4} {
		eng.Insert("T", v)
	}
	if n := eng.Insert("R", 1); n != 1 {
		t.Fatalf("Example 3.1: %d deltas, want 1", n)
	}
	if n := eng.Insert("T", 3); n != 2 {
		t.Fatalf("Example 3.3: %d deltas, want 2", n)
	}
	if n := eng.Delete("S", 1, 2); n != 2 {
		t.Fatalf("delete retraction: %d deltas, want 2", n)
	}
	st := eng.Stats()
	if st.Updates != 11 || st.Outputs != 6 {
		t.Fatalf("stats: %+v", st)
	}
	if st.WorkSeconds <= 0 {
		t.Fatal("no work recorded")
	}
}

func TestFacadeMatchesOracle(t *testing.T) {
	eng := buildThreeWay(t, Options{ReoptInterval: 300, Seed: 9})
	// Shadow oracle over the same internal query shape.
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
	o := oracle.New(q)
	names := []string{"R", "S", "T"}
	rng := rand.New(rand.NewSource(10))
	live := make([][]tuple.Tuple, 3)
	for i := 0; i < 1500; i++ {
		rel := rng.Intn(3)
		var got, want int
		// Keep relations small: the oracle recomputes joins naively, so
		// growth makes it cubically slower without testing anything new.
		if len(live[rel]) > 3 && (len(live[rel]) > 12 || rng.Intn(2) == 0) {
			j := rng.Intn(len(live[rel]))
			tp := live[rel][j]
			live[rel] = append(live[rel][:j:j], live[rel][j+1:]...)
			got = eng.Delete(names[rel], tp...)
			want = len(o.Process(stream.Update{Op: stream.Delete, Rel: rel, Tuple: tp}))
		} else {
			tp := make(tuple.Tuple, q.Schema(rel).Len())
			for c := range tp {
				tp[c] = rng.Int63n(6)
			}
			live[rel] = append(live[rel], tp)
			got = eng.Insert(names[rel], tp...)
			want = len(o.Process(stream.Update{Op: stream.Insert, Rel: rel, Tuple: tp}))
		}
		if got != want {
			t.Fatalf("step %d: engine %d deltas, oracle %d", i, got, want)
		}
	}
}

func TestWindowedAppend(t *testing.T) {
	eng, err := NewQuery().
		WindowedRelation("L", 2, "K").
		WindowedRelation("R", 2, "K").
		Join("L.K", "R.K").
		Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Append("L", 1)
	if n := eng.Append("R", 1); n != 1 {
		t.Fatalf("join delta = %d, want 1", n)
	}
	// Two more L appends expire L⟨1⟩: the expiry delete retracts the match.
	eng.Append("L", 2)
	if n := eng.Append("L", 3); n != 1 {
		t.Fatalf("expiry retraction = %d, want 1 (delete of the 1-1 match)", n)
	}
	if eng.WindowLen("L") != 2 {
		t.Fatalf("window len = %d", eng.WindowLen("L"))
	}
}

func TestTimeWindowedAppendAt(t *testing.T) {
	eng, err := NewQuery().
		TimeWindowedRelation("L", 10, "K").
		TimeWindowedRelation("R", 20, "K").
		Join("L.K", "R.K").
		Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AppendAt("L", 100, 1)
	if n := eng.AppendAt("R", 105, 1); n != 1 {
		t.Fatalf("join delta = %d, want 1", n)
	}
	// At t=111, L⟨1⟩ (ts 100, span 10) expires → retraction; R⟨1⟩ (span 20)
	// survives. The new R tuple joins nothing (L now empty).
	if n := eng.AppendAt("R", 111, 2); n != 1 {
		t.Fatalf("expiry retraction = %d, want 1", n)
	}
	if eng.WindowLen("L") != 0 || eng.WindowLen("R") != 2 {
		t.Fatalf("window lens = %d, %d", eng.WindowLen("L"), eng.WindowLen("R"))
	}
	// Pure clock advance expires R's tuples and retracts nothing (no L).
	if n := eng.AdvanceTime(1000); n != 0 {
		t.Fatalf("advance retracted %d", n)
	}
	if eng.WindowLen("R") != 0 {
		t.Fatal("advance did not expire R")
	}
}

func TestTimeWindowMisusePanics(t *testing.T) {
	eng, err := NewQuery().
		TimeWindowedRelation("L", 10, "K").
		WindowedRelation("R", 5, "K").
		Join("L.K", "R.K").
		Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append on a time-windowed relation must panic")
		}
	}()
	eng.Append("L", 1)
}

func TestFilterThetaPredicates(t *testing.T) {
	eng, err := NewQuery().
		Relation("Bids", "Item", "Price").
		Relation("Asks", "Item", "Price").
		Join("Bids.Item", "Asks.Item").
		Filter("Bids.Price", ">=", "Asks.Price").
		Build(Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	eng.Insert("Asks", 7, 100)
	if n := eng.Insert("Bids", 7, 99); n != 0 {
		t.Fatalf("bid below ask matched: %d", n)
	}
	if n := eng.Insert("Bids", 7, 100); n != 1 {
		t.Fatalf("bid at ask: %d matches, want 1", n)
	}
	if n := eng.Insert("Bids", 8, 500); n != 0 {
		t.Fatalf("wrong item matched: %d", n)
	}
	if _, err := NewQuery().
		Relation("A", "X").
		Relation("B", "X").
		Join("A.X", "B.X").
		Filter("A.X", "~", "B.X").
		Build(Options{}); err == nil {
		t.Fatal("bad operator accepted")
	}
}

func TestParseQueryWithThetas(t *testing.T) {
	q, err := ParseQuery(`SELECT * FROM Bids (Item, Price) [ROWS 50], Asks (Item, Price) [ROWS 50]
		WHERE Bids.Item = Asks.Item AND Bids.Price >= Asks.Price`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	eng, err := q.Build(Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	eng.Append("Asks", 1, 10)
	if n := eng.Append("Bids", 1, 9); n != 0 {
		t.Fatalf("below-ask bid matched: %d", n)
	}
	if n := eng.Append("Bids", 1, 11); n != 1 {
		t.Fatalf("above-ask bid: %d, want 1", n)
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(`SELECT * FROM R (A) [ROWS 100], S (A, B) [ROWS 100], T (B) [RANGE 50]
		WHERE R.A = S.A AND S.B = T.B`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	eng, err := q.Build(Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	eng.Append("S", 1, 2)
	eng.AppendAt("T", 10, 2)
	if n := eng.Append("R", 1); n != 1 {
		t.Fatalf("parsed-query join delta = %d, want 1", n)
	}
	if _, err := ParseQuery(`SELECT * FROM R`); err == nil {
		t.Fatal("bad CQL accepted")
	}
	// Parsed queries hit the same semantic validation at Build time.
	q2, err := ParseQuery(`SELECT * FROM A (X), B (Y)`)
	if err != nil {
		t.Fatalf("syntactically valid CQL rejected: %v", err)
	}
	if _, err := q2.Build(Options{}); err == nil {
		t.Fatal("disconnected parsed query accepted at Build")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := (NewQuery().
		Relation("A", "X").
		Relation("A", "Y")).Join("A.X", "A.Y").Build(Options{}); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if _, err := NewQuery().
		Relation("A", "X").
		Relation("B", "X").
		Join("A.X", "C.X").
		Build(Options{}); err == nil {
		t.Fatal("unknown relation in join accepted")
	}
	if _, err := NewQuery().
		Relation("A", "X").
		Relation("B", "X").
		Join("AX", "B.X").
		Build(Options{}); err == nil {
		t.Fatal("malformed ref accepted")
	}
	if _, err := NewQuery().
		Relation("A", "X").
		Relation("B", "X").
		Build(Options{}); err == nil {
		t.Fatal("disconnected query accepted")
	}
	// A relation with no attributes can join nothing and gives a window no
	// first value to refer to: every Build names that, not a symptom of it.
	bare := func() *Query { return NewQuery().WindowedRelation("A", 4).WindowedRelation("B", 4, "X") }
	_, err := bare().Build(Options{})
	_, errSharded := bare().BuildSharded(Options{}, ShardOptions{Shards: 2})
	_, _, errDurable := bare().BuildDurable(Options{Tier: TierOptions{Dir: t.TempDir()}})
	for _, err := range []error{err, errSharded, errDurable} {
		if err == nil || !strings.Contains(err.Error(), "no attributes") {
			t.Fatalf("relation with no attributes: Build error %v", err)
		}
	}
}

// TestBuildRejectsImpliedSelfJoin: R.B = S.B and R.B = S.B2 equate two
// attributes of S through R, a self-join predicate no pipeline rooted at S
// would check; every Build rejects it, as it rejects S.B = S.B2.
func TestBuildRejectsImpliedSelfJoin(t *testing.T) {
	decl := func() *Query {
		return NewQuery().
			WindowedRelation("R", 8, "B").
			WindowedRelation("S", 8, "B", "B2").
			Join("R.B", "S.B").
			Join("R.B", "S.B2")
	}
	_, err := decl().Build(Options{})
	_, errSharded := decl().BuildSharded(Options{}, ShardOptions{Shards: 2})
	_, _, errDurable := decl().BuildDurable(Options{Tier: TierOptions{Dir: t.TempDir()}})
	for _, err := range []error{err, errSharded, errDurable} {
		if err == nil || !strings.Contains(err.Error(), "self-join") {
			t.Fatalf("implied self-join: Build error %v", err)
		}
	}
}

// TestDeclarationOrderIrrelevant: the §7.2 query R(A) ⋈ S(A,B) ⋈ T(B) at
// window 1 000 and a 1:1:5 mix, declared R, S, T (ascending order would give
// ΔT the cross product [R, S]) and hub-first S, R, T, yields the same result
// multiset for the same stream at the same simulated work, within 1%.
func TestDeclarationOrderIrrelevant(t *testing.T) {
	type run struct {
		rows map[[5]int64]int
		work float64
	}
	drive := func(order []string) run {
		attrs := map[string][]string{"R": {"A"}, "S": {"A", "B"}, "T": {"B"}}
		q := NewQuery()
		for _, name := range order {
			q.WindowedRelation(name, 1000, attrs[name]...)
		}
		eng, err := q.Join("R.A", "S.A").Join("S.B", "T.B").Build(Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Canonical rows list relations in declaration order; key each delta
		// by (R.A, S.A, S.B, T.B, insert) whatever that order was.
		at := make(map[string]int)
		col := 0
		for _, name := range order {
			at[name] = col
			col += len(attrs[name])
		}
		out := run{rows: make(map[[5]int64]int)}
		eng.OnResult(func(insert bool, row []int64) {
			k := [5]int64{row[at["R"]], row[at["S"]], row[at["S"]+1], row[at["T"]]}
			if insert {
				k[4] = 1
			}
			out.rows[k]++
		})
		rng := rand.New(rand.NewSource(72))
		for i := 0; i < 30_000; i++ {
			switch i % 7 {
			case 0:
				eng.Append("R", rng.Int63n(1000))
			case 1:
				eng.Append("S", rng.Int63n(1000), rng.Int63n(1000))
			default:
				eng.Append("T", rng.Int63n(1000))
			}
		}
		out.work = eng.Stats().WorkSeconds
		return out
	}
	rst, srt := drive([]string{"R", "S", "T"}), drive([]string{"S", "R", "T"})
	if len(srt.rows) == 0 {
		t.Fatal("the stream produced no results")
	}
	if !maps.Equal(rst.rows, srt.rows) {
		t.Fatalf("result multisets differ: %d distinct rows declared R, S, T vs %d hub-first", len(rst.rows), len(srt.rows))
	}
	if r := rst.work / srt.work; r < 0.99 || r > 1.01 {
		t.Fatalf("declared R, S, T does %.2f× the hub-first simulated work (%.4g vs %.4g s)", r, rst.work, srt.work)
	}
}

func TestArityPanics(t *testing.T) {
	eng := buildThreeWay(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity must panic")
		}
	}()
	eng.Insert("R", 1, 2)
}

func TestUnknownRelationPanics(t *testing.T) {
	eng := buildThreeWay(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown relation must panic")
		}
	}()
	eng.Insert("Z", 1)
}

func TestStatsReportUsedCaches(t *testing.T) {
	eng, err := NewQuery().
		WindowedRelation("R", 60, "A").
		WindowedRelation("S", 60, "A", "B").
		WindowedRelation("T", 60, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 2_000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// The Section 7.2 regime: T hot with repeating keys → R⋈S-style cache.
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40_000; i++ {
		switch {
		case i%12 < 10:
			eng.Append("T", rng.Int63n(30))
		case i%12 == 10:
			eng.Append("R", rng.Int63n(30))
		default:
			eng.Append("S", rng.Int63n(30), rng.Int63n(30))
		}
	}
	st := eng.Stats()
	if len(st.UsedCaches) == 0 {
		t.Fatalf("no caches adopted; stats %+v", st)
	}
	for _, c := range st.UsedCaches {
		if !strings.Contains(c, "cache(") {
			t.Fatalf("cache description %q", c)
		}
	}
	if st.Reopts == 0 {
		t.Fatal("no re-optimizations")
	}
	if st.CacheMemoryBytes <= 0 {
		t.Fatal("no cache memory reported")
	}
}

func TestDescribePlan(t *testing.T) {
	eng, err := NewQuery().
		WindowedRelation("R", 60, "A").
		WindowedRelation("S", 60, "A", "B").
		WindowedRelation("T", 60, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 2_000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40_000; i++ {
		switch {
		case i%12 < 10:
			eng.Append("T", rng.Int63n(30))
		case i%12 == 10:
			eng.Append("R", rng.Int63n(30))
		default:
			eng.Append("S", rng.Int63n(30), rng.Int63n(30))
		}
	}
	out := eng.DescribePlan()
	for _, want := range []string{"ΔR:", "ΔS:", "ΔT:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan description missing %q:\n%s", want, out)
		}
	}
	if len(eng.Stats().UsedCaches) > 0 && !strings.Contains(out, "cache") {
		t.Fatalf("caches in use but not described:\n%s", out)
	}
}

func TestSetMemoryBudget(t *testing.T) {
	eng := buildThreeWay(t, Options{MemoryBudget: 4096, Seed: 3})
	eng.SetMemoryBudget(8192)
	eng.SetMemoryBudget(0) // 0 → unlimited at the facade level
	eng.Insert("R", 1)
}

func TestNoIndexOption(t *testing.T) {
	eng, err := NewQuery().
		Relation("R", "A").
		Relation("S", "A", "B").
		Relation("T", "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{NoIndex: []string{"S.B"}})
	if err != nil {
		t.Fatalf("Build with NoIndex: %v", err)
	}
	eng.Insert("S", 1, 2)
	if n := eng.Insert("T", 2); n != 0 {
		t.Fatalf("deltas = %d, want 0 (no R partner yet)", n)
	}
	eng.Insert("R", 1)
	if n := eng.Insert("T", 2); n != 1 {
		t.Fatalf("NL-join deltas = %d, want 1", n)
	}
	if _, err := NewQuery().
		Relation("R", "A").
		Relation("S", "A").
		Join("R.A", "S.A").
		Build(Options{NoIndex: []string{"bogus"}}); err == nil {
		t.Fatal("malformed NoIndex accepted")
	}
}

func TestAdvancedOptionsEndToEnd(t *testing.T) {
	// Budget-aware selection under a finite budget, oracle-checked.
	eng, err := NewQuery().
		WindowedRelation("R", 40, "A").
		WindowedRelation("S", 40, "A", "B").
		WindowedRelation("T", 40, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{
			ReoptInterval: 500,
			MemoryBudget:  4096,
			BudgetAware:   true,
			Seed:          31,
		})
	if err != nil {
		t.Fatal(err)
	}
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
	o := oracle.New(q)
	names := []string{"R", "S", "T"}
	wins := []*stream.SlidingWindow{
		stream.NewSlidingWindow(40), stream.NewSlidingWindow(40), stream.NewSlidingWindow(40),
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 4000; i++ {
		rel := rng.Intn(3)
		tp := make(tuple.Tuple, q.Schema(rel).Len())
		for c := range tp {
			tp[c] = rng.Int63n(8)
		}
		got := eng.Append(names[rel], tp...)
		want := 0
		for _, u := range wins[rel].Append(tp) {
			u.Rel = rel
			want += len(o.Process(u))
		}
		if got != want {
			t.Fatalf("step %d: engine %d deltas, oracle %d", i, got, want)
		}
	}
}

func TestDisableCaching(t *testing.T) {
	eng := buildThreeWay(t, Options{DisableCaching: true})
	eng.Insert("R", 1)
	eng.Insert("S", 1, 2)
	if n := eng.Insert("T", 2); n != 1 {
		t.Fatalf("MJoin deltas = %d", n)
	}
	if st := eng.Stats(); len(st.UsedCaches) != 0 {
		t.Fatal("DisableCaching used caches")
	}
}

// TestHeldTupleFootprint is the guard on what a stored tuple costs in heap
// bytes, all of it: five full width-1 windows of 50 000 behind a plain MJoin
// — the value itself, the window ring's reference, the store slab's, a chain
// link, the tuple's share of its index table. It reads 42; 45 while a
// fingerprint filter fronted each index, and 88 when ring and slab held slice
// headers, the store kept scan-order arrays and tables were sized for
// tombstones. The bound keeps the quarter of headroom it had over 45, room
// for a filter's share again but not for a header.
func TestHeldTupleFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 250 000 window slots")
	}
	const rels, window, domain, bound = 5, 50_000, 100_000, 52
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	q := NewQuery()
	names := make([]string, rels)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
		q.WindowedRelation(names[i], window, "A")
		if i > 0 {
			q.Join("R0.A", names[i]+".A")
		}
	}
	eng, err := q.Build(Options{DisableCaching: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	cur := make([]int64, rels)
	for i := 0; i < rels*(window+window/5); i++ { // fill, then slide a fifth further
		// R2..R4 repeat each value five times in a row, as nway5_mjoin does.
		if r := i % rels; r < 2 || i/rels%5 == 0 {
			cur[r] = rng.Int63n(domain)
		}
		eng.Append(names[i%rels], cur[i%rels])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := 0
	for _, name := range names {
		held += eng.WindowLen(name)
	}
	perTuple := float64(after.HeapAlloc-before.HeapAlloc) / float64(held)
	t.Logf("%d tuples held, %.1f heap bytes each", held, perTuple)
	if held != rels*window || perTuple > bound {
		t.Fatalf("%d tuples held at %.1f heap bytes each, want %d at no more than %d", held, perTuple, rels*window, bound)
	}
	runtime.KeepAlive(eng)
}

func TestExplain(t *testing.T) {
	eng, err := NewQuery().
		WindowedRelation("R", 60, "A").
		WindowedRelation("S", 60, "A", "B").
		WindowedRelation("T", 60, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 2_000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 30_000; i++ {
		switch {
		case i%12 < 10:
			eng.Append("T", rng.Int63n(30))
		case i%12 == 10:
			eng.Append("R", rng.Int63n(30))
		default:
			eng.Append("S", rng.Int63n(30), rng.Int63n(30))
		}
	}
	out := eng.Explain()
	if !strings.Contains(out, "benefit=") || !strings.Contains(out, "cache(") {
		t.Fatalf("Explain output:\n%s", out)
	}
	if !strings.Contains(out, "used") {
		t.Fatalf("no candidate state rendered:\n%s", out)
	}
}

func TestOnResultDeltas(t *testing.T) {
	eng := buildThreeWay(t, Options{})
	if cols := eng.q.ResultColumns(); len(cols) != 4 || cols[0] != "R.A" || cols[2] != "S.B" {
		t.Fatalf("ResultColumns = %v", cols)
	}
	type delta struct {
		ins bool
		row []int64
	}
	var got []delta
	eng.OnResult(func(ins bool, row []int64) {
		got = append(got, delta{ins, append([]int64(nil), row...)})
	})
	eng.Insert("S", 1, 2)
	eng.Insert("T", 2)
	eng.Insert("R", 1) // → +⟨R.A=1, S.A=1, S.B=2, T.B=2⟩
	if len(got) != 1 || !got[0].ins {
		t.Fatalf("deltas = %+v", got)
	}
	want := []int64{1, 1, 2, 2}
	for i, v := range want {
		if got[0].row[i] != v {
			t.Fatalf("row = %v, want %v", got[0].row, want)
		}
	}
	eng.Delete("T", 2) // retraction
	if len(got) != 2 || got[1].ins {
		t.Fatalf("retraction missing: %+v", got)
	}
}

// TestOnResultRowLifetime pins the row contract from both sides: a callback
// that copies each row sees exactly the oracle's delta multiset, and one that
// keeps the slices instead finds them sharing storage — the row is the
// engine's buffer, refilled for the next result.
func TestOnResultRowLifetime(t *testing.T) {
	eng, err := NewQuery().
		WindowedRelation("R", 40, "A").
		WindowedRelation("S", 40, "A", "B").
		WindowedRelation("T", 40, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	iq, err := query.NewWithThetas(eng.q.schemas, eng.q.preds, eng.q.thetas)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New(iq)
	var kept [][]int64      // the slices as handed out
	got := map[string]int{} // signed multiset of copies (formatted in the callback)
	eng.OnResult(func(ins bool, row []int64) {
		kept = append(kept, row)
		if ins {
			got[fmt.Sprint(row)]++
		} else {
			got[fmt.Sprint(row)]--
		}
	})
	names := []string{"R", "S", "T"}
	wins := []*stream.SlidingWindow{
		stream.NewSlidingWindow(40), stream.NewSlidingWindow(40), stream.NewSlidingWindow(40),
	}
	rng := rand.New(rand.NewSource(32))
	shared := 0
	for i := 0; i < 2000; i++ {
		rel := rng.Intn(3)
		tp := make(tuple.Tuple, len(eng.q.schemas[rel].Cols()))
		for c := range tp {
			tp[c] = rng.Int63n(8)
		}
		kept = kept[:0]
		clear(got)
		eng.Append(names[rel], tp...)
		want := map[string]int{}
		for _, u := range wins[rel].Append(tp) {
			u.Rel = rel
			for _, d := range o.Process(u) {
				if u.Op == stream.Insert {
					want[fmt.Sprint([]int64(d))]++
				} else {
					want[fmt.Sprint([]int64(d))]--
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: copied rows %v, oracle %v", i, got, want)
		}
		for j := 1; j < len(kept); j++ {
			if &kept[j][0] == &kept[j-1][0] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two successive callbacks shared a row buffer: rows are being cloned per result again")
	}
}

// TestOnResultSurvivesReordering: over an adaptive run on a query declared
// R, S, T — whose pipelines the join-graph ordering reorders away from the
// declaration — every result delta reaches the callback.
func TestOnResultSurvivesReordering(t *testing.T) {
	eng, err := NewQuery().
		WindowedRelation("R", 40, "A").
		WindowedRelation("S", 40, "A", "B").
		WindowedRelation("T", 40, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B").
		Build(Options{ReoptInterval: 400, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	eng.OnResult(func(bool, []int64) { count++ })
	rng := rand.New(rand.NewSource(42))
	total := 0
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			total += eng.Append("R", rng.Int63n(10))
		case 1:
			total += eng.Append("S", rng.Int63n(10), rng.Int63n(10))
		default:
			total += eng.Append("T", rng.Int63n(10))
		}
	}
	if count != total {
		t.Fatalf("callback saw %d deltas, engine reported %d", count, total)
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.ID("alpha")
	b := in.ID("beta")
	if a == b {
		t.Fatal("distinct strings share an id")
	}
	if in.ID("alpha") != a {
		t.Fatal("re-intern changed the id")
	}
	if in.Name(a) != "alpha" || in.Name(b) != "beta" {
		t.Fatal("Name round-trip failed")
	}
	if id, ok := in.Lookup("beta"); !ok || id != b {
		t.Fatal("Lookup failed")
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Fatal("unknown string found")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d", in.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown id must panic")
		}
	}()
	in.Name(99)
}

func TestInternerWithEngine(t *testing.T) {
	// String-keyed streams through the symbol table.
	in := NewInterner()
	eng, err := NewQuery().
		WindowedRelation("Users", 10, "Name").
		WindowedRelation("Logins", 10, "Name").
		Join("Users.Name", "Logins.Name").
		Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Append("Users", in.ID("ada"))
	if n := eng.Append("Logins", in.ID("ada")); n != 1 {
		t.Fatalf("interned join = %d, want 1", n)
	}
	if n := eng.Append("Logins", in.ID("grace")); n != 0 {
		t.Fatalf("unmatched interned key joined: %d", n)
	}
}

func TestPartitionedRelation(t *testing.T) {
	eng, err := NewQuery().
		PartitionedRelation("Quotes", "Instr", 2, "Instr", "Px").
		Relation("Refs", "Instr").
		Join("Quotes.Instr", "Refs.Instr").
		Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Insert("Refs", 1)
	eng.Insert("Refs", 2)
	eng.Append("Quotes", 1, 100)
	eng.Append("Quotes", 1, 101)
	eng.Append("Quotes", 2, 200)
	// A third quote for instrument 1 expires its oldest only; instrument 2
	// keeps its single quote.
	if n := eng.Append("Quotes", 1, 102); n != 2 {
		t.Fatalf("deltas = %d, want 2 (one retraction + one insert match)", n)
	}
	if got := eng.WindowLen("Quotes"); got != 3 {
		t.Fatalf("store holds %d quotes, want 3", got)
	}
	// Validation errors.
	if _, err := NewQuery().
		PartitionedRelation("Q", "Zzz", 2, "A").
		Relation("R", "A").Join("Q.A", "R.A").Build(Options{}); err == nil {
		t.Fatal("unknown partition attribute accepted")
	}
	// Via CQL.
	q, err := ParseQuery(`SELECT * FROM Quotes (Instr, Px) [PARTITION BY Instr ROWS 2], Refs (Instr)
		WHERE Quotes.Instr = Refs.Instr`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Build(Options{}); err != nil {
		t.Fatalf("Build parsed partitioned query: %v", err)
	}
}

// TestOptionsReachCoreConfig guards the hand-copied Options → core.Config
// mapping: setting any exported Options field but Tier (BuildDurable's
// directory) to a non-zero value must change the core.Config compile
// returns, so a field added or kept without its mapping line fails here
// instead of being silently ignored.
func TestOptionsReachCoreConfig(t *testing.T) {
	q := NewQuery().Relation("R", "A").Relation("S", "A").Join("R.A", "S.A")
	_, base, err := q.compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	setNonZero := func(name string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("spill")
		case reflect.Slice: // NoIndex: "Rel.Attr" references
			f.Set(reflect.ValueOf([]string{"R.A"}))
		default:
			t.Fatalf("%s has kind %s: give it a non-zero value here", name, f.Kind())
		}
	}
	check := func(name string, opts Options) {
		_, cfg, err := q.compile(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("Options.%s does not reach core.Config", name)
		}
	}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		sf := ot.Field(i)
		if !sf.IsExported() {
			continue
		}
		if sf.Name == "Tier" {
			continue // BuildDurable's directory: the engine never sees it
		}
		var opts Options
		setNonZero(sf.Name, reflect.ValueOf(&opts).Elem().Field(i))
		check(sf.Name, opts)
	}
}
