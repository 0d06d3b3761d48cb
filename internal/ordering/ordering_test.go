package ordering

import (
	"testing"

	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/profiler"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/synth"
	"acache/internal/tuple"
)

func TestInitialOrdering(t *testing.T) {
	ord := InitialOrdering(3)
	want := [][]int{{1, 2}, {0, 2}, {0, 1}}
	for i := range want {
		for j := range want[i] {
			if ord[i][j] != want[i][j] {
				t.Fatalf("InitialOrdering = %v", ord)
			}
		}
	}
}

func TestRank(t *testing.T) {
	if rank(0.5, 2) != -0.25 {
		t.Fatalf("rank(0.5,2) = %v", rank(0.5, 2))
	}
	if rank(2, 1) != 1 {
		t.Fatalf("rank(2,1) = %v", rank(2, 1))
	}
	if rank(5, 0) != 0 {
		t.Fatal("zero-cost rank must be 0")
	}
}

func TestModelCost(t *testing.T) {
	steps := []stepStat{
		{fanout: 0.5, cost: 2},
		{fanout: 2, cost: 4},
	}
	// 1×2 + 0.5×4 = 4
	if c := modelCost(steps); c != 4 {
		t.Fatalf("modelCost = %v", c)
	}
	// Reversed: 1×4 + 2×2 = 8 — the reducer-first order is cheaper.
	rev := []stepStat{steps[1], steps[0]}
	if c := modelCost(rev); c != 8 {
		t.Fatalf("modelCost reversed = %v", c)
	}
}

// buildProfiled constructs a 3-way workload where ΔR1's pipeline joins an
// expensive expanding relation first — the advisor must recommend swapping.
func buildProfiled(t *testing.T) (*Advisor, *profiler.Profiler, *join.Exec) {
	t.Helper()
	q, err := query.New(
		[]*tuple.Schema{
			tuple.RelationSchema(0, "A"),
			tuple.RelationSchema(1, "A"),
			tuple.RelationSchema(2, "A"),
		},
		[]query.Pred{
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 1, Name: "A"}},
			{Left: tuple.Attr{Rel: 0, Name: "A"}, Right: tuple.Attr{Rel: 2, Name: "A"}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	meter := &cost.Meter{}
	// ΔR1: joins R2 (fanout ~8) before R3 (fanout ~1) — clearly bad.
	e, err := join.NewExec(q, [][]int{{1, 2}, {0, 2}, {0, 1}}, meter, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := profiler.New(q, e, meter, profiler.Config{SampleProb: 1, RateSpan: 10, Seed: 1})
	// R2 holds 8 copies of each key; R3 one copy.
	for i := 0; i < 8; i++ {
		for v := int64(0); v < 10; v++ {
			e.Process(stream.Update{Op: stream.Insert, Rel: 1, Tuple: tuple.Tuple{v}})
		}
	}
	for v := int64(0); v < 10; v++ {
		e.Process(stream.Update{Op: stream.Insert, Rel: 2, Tuple: tuple.Tuple{v}})
	}
	gen := synth.Counter(0, 10, 1)
	for i := 0; i < 400; i++ {
		u := stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{gen.Next()}}
		res, prof := e.ProcessProfiled(u)
		_ = res
		pf.Observe(0, prof)
		pf.TickN(0, 1)
		e.Process(stream.Update{Op: stream.Delete, Rel: 0, Tuple: u.Tuple})
		pf.TickN(0, 1)
	}
	return New(q, pf), pf, e
}

func TestAdvisorRecommendsReducerFirst(t *testing.T) {
	adv, pf, _ := buildProfiled(t)
	if !pf.PipelineReady(0) {
		t.Fatal("pipeline 0 not ready")
	}
	got, changed := adv.Advise(0, []int{1, 2})
	if !changed {
		t.Fatal("advisor must recommend reordering the expander-first pipeline")
	}
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("advised order = %v, want [2 1]", got)
	}
}

func TestAdvisorCooldown(t *testing.T) {
	adv, _, _ := buildProfiled(t)
	_, changed := adv.Advise(0, []int{1, 2})
	if !changed {
		t.Fatal("first advice must change")
	}
	// Immediately after a reorder, the pipeline sits out the cooldown even
	// though its (stale) statistics still suggest change.
	for i := 0; i < adv.Cooldown; i++ {
		if _, ch := adv.Advise(0, []int{1, 2}); ch {
			t.Fatalf("advice during cooldown step %d", i)
		}
	}
}

func TestAdvisorStableWhenBalanced(t *testing.T) {
	adv, _, _ := buildProfiled(t)
	// Pipeline 1 was never profiled → not ready → no advice.
	if _, changed := adv.Advise(1, []int{0, 2}); changed {
		t.Fatal("unprofiled pipeline must not be reordered")
	}
}
