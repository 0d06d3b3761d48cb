package profiler

import (
	"testing"

	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/synth"
	"acache/internal/tuple"
)

func chain3(t *testing.T) *query.Query {
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

func setup(t *testing.T, cfg Config) (*query.Query, *join.Exec, *Profiler, *cost.Meter) {
	t.Helper()
	q := chain3(t)
	meter := &cost.Meter{}
	e, err := join.NewExec(q, [][]int{{1, 2}, {2, 0}, {1, 0}}, meter, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q, e, New(q, e, meter, cfg), meter
}

// drive feeds n window appends per relation in round-robin with full
// profiling so statistics fill deterministically.
func drive(e *join.Exec, pf *Profiler, n int) {
	gens := []stream.TupleGen{
		synth.Tuples(synth.Counter(0, 20, 1)),
		synth.Tuples(synth.Counter(0, 20, 1), synth.Counter(0, 20, 1)),
		synth.Tuples(synth.Counter(0, 20, 5)),
	}
	windows := []*stream.SlidingWindow{
		stream.NewSlidingWindow(20), stream.NewSlidingWindow(20), stream.NewSlidingWindow(20),
	}
	for i := 0; i < n; i++ {
		rel := i % 3
		for _, u := range windows[rel].Append(gens[rel]()) {
			u.Rel = rel
			if pf.ShouldProfile(rel) {
				_, prof := e.ProcessProfiled(u)
				pf.Observe(rel, prof)
			} else {
				e.Process(u)
			}
			pf.TickN(rel, 1)
		}
	}
}

func TestStatisticsFillAndReady(t *testing.T) {
	_, e, pf, _ := setup(t, Config{SampleProb: 0.5, RateSpan: 20, Seed: 1})
	ready := func() bool {
		return pf.PipelineReady(0) && pf.PipelineReady(1) && pf.PipelineReady(2)
	}
	if ready() {
		t.Fatal("fresh profiler ready")
	}
	drive(e, pf, 2000)
	if !ready() {
		t.Fatal("profiler not ready after 2000 appends")
	}
	for pipe := 0; pipe < 3; pipe++ {
		if r := pf.Rate(pipe); r <= 0 {
			t.Fatalf("rate(%d) = %v", pipe, r)
		}
		// Every pipeline's first operator processes the raw update stream,
		// so its statistics must be strictly positive; downstream operators
		// may legitimately be starved (selective first join → c = 0).
		if c := pf.C(pipe, 0); c <= 0 {
			t.Fatalf("c(%d,0) = %v", pipe, c)
		}
		if d := pf.D(pipe, 0); d <= 0 {
			t.Fatalf("d(%d,0) = %v", pipe, d)
		}
		if c := pf.C(pipe, 1); c < 0 {
			t.Fatalf("c(%d,1) = %v", pipe, c)
		}
	}
	// d at position 0 is the update rate itself: D(i,0) = rate × mean(δ₀)
	// and δ₀ ≡ 1.
	for pipe := 0; pipe < 3; pipe++ {
		d0, r := pf.D(pipe, 0), pf.Rate(pipe)
		if d0 < 0.9*r || d0 > 1.1*r {
			t.Fatalf("D(%d,0)=%v vs rate %v", pipe, d0, r)
		}
	}
}

func TestIdlePipelineCountsAsReady(t *testing.T) {
	_, e, pf, _ := setup(t, Config{SampleProb: 0.5, RateSpan: 20, Seed: 3})
	// Feed only relations 0 and 2; relation 1 stays idle.
	gen0 := synth.Tuples(synth.Counter(0, 20, 1))
	gen2 := synth.Tuples(synth.Counter(0, 20, 1))
	for i := 0; i < 3000; i++ {
		rel, gen := 0, gen0
		if i%2 == 1 {
			rel, gen = 2, gen2
		}
		u := stream.Update{Op: stream.Insert, Rel: rel, Tuple: gen()}
		if pf.ShouldProfile(rel) {
			_, prof := e.ProcessProfiled(u)
			pf.Observe(rel, prof)
		} else {
			e.Process(u)
		}
		pf.TickN(rel, 1)
	}
	if !pf.PipelineReady(1) {
		t.Fatal("idle pipeline must be treated as ready (negligible traffic share)")
	}
}

func TestShadowMissProbConvergesForCyclicKeys(t *testing.T) {
	q, e, pf, _ := setup(t, Config{SampleProb: 0, Wd: 50, RateSpan: 20, Seed: 4})
	cands := planner.Candidates(q, [][]int{{1, 2}, {2, 0}, {1, 0}})
	spec := pf.AddSlot(cands[0]) // R2⋈R3 cache in ΔR1, probed on R1.A
	pf.StartShadow(spec)
	// Probe keys cycle over 10 values: steady-state misses ≈ 0 even though
	// each 50-probe window sees 10 distinct keys (the paper's windowed
	// estimator reads ~0.2).
	gen := synth.Counter(0, 10, 1)
	for i := 0; i < 4000; i++ {
		e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{gen.Next()}})
		pf.TickN(0, 1)
	}
	miss, ok := pf.ShadowMissProb(spec)
	if !ok {
		t.Fatal("shadow not ready")
	}
	if miss > 0.05 {
		t.Fatalf("retention-aware miss estimate %v, want ≈ 0", miss)
	}
	// What ShadowMissProb reports under Config.PaperMissEstimator.
	paper := pf.shadows[spec].windowedWin
	if !paper.Full() {
		t.Fatal("windowed estimate not ready")
	}
	if windowed := paper.Mean(); windowed < 0.1 {
		t.Fatalf("the paper's windowed estimator should read ≈ 10/50 here, got %v", windowed)
	}
	if d, ok := pf.ShadowDistinct(spec); !ok || d < 5 || d > 20 {
		t.Fatalf("distinct estimate %v (ok=%v), want ≈ 10", d, ok)
	}
	pf.StopShadow(spec)
	if _, ok := pf.ShadowMissProb(spec); ok {
		t.Fatal("stopped shadow still reporting")
	}
}

func TestShadowFreshKeysStayMissy(t *testing.T) {
	q, e, pf, _ := setup(t, Config{SampleProb: 0, Wd: 50, RateSpan: 20, Seed: 5})
	cands := planner.Candidates(q, [][]int{{1, 2}, {2, 0}, {1, 0}})
	spec := pf.AddSlot(cands[0])
	pf.StartShadow(spec)
	// Every probe key is brand new: true miss probability is 1.
	gen := synth.Counter(0, 0, 1)
	for i := 0; i < 3000; i++ {
		e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{gen.Next()}})
	}
	miss, ok := pf.ShadowMissProb(spec)
	if !ok {
		t.Fatal("shadow not ready (stationary stream should stabilize fast)")
	}
	if miss < 0.9 {
		t.Fatalf("fresh-key miss estimate %v, want ≈ 1", miss)
	}
}

func TestEstimateCostModelShapes(t *testing.T) {
	q, e, pf, _ := setup(t, Config{SampleProb: 0.5, RateSpan: 20, Seed: 6})
	drive(e, pf, 3000)
	cands := planner.Candidates(q, [][]int{{1, 2}, {2, 0}, {1, 0}})
	spec := cands[0]
	low := pf.Estimate(spec, 0.05, 20)
	high := pf.Estimate(spec, 0.95, 20)
	if !low.Ready {
		t.Fatal("estimate not ready after driving")
	}
	if low.Benefit <= high.Benefit {
		t.Fatalf("benefit must fall with miss probability: %v vs %v", low.Benefit, high.Benefit)
	}
	if low.Cost <= 0 {
		t.Fatalf("maintenance cost = %v", low.Cost)
	}
	if low.Cost != high.Cost {
		t.Fatal("maintenance cost must not depend on miss probability")
	}
	// proc(C) + benefit(C) = Σ d·c (Section 4.4's alternative formulation).
	dcSum := pf.OpCost(0, 0) + pf.OpCost(0, 1)
	if diff := low.Proc + low.Benefit - dcSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("proc + benefit = %v, want Σd·c = %v", low.Proc+low.Benefit, dcSum)
	}
	if low.ExpectedBytes <= 0 || low.ExpectedEntries != 20 {
		t.Fatalf("memory estimate: %v bytes, %v entries", low.ExpectedBytes, low.ExpectedEntries)
	}
}

func TestProbeAndUpdateCostFormulas(t *testing.T) {
	// probe_cost falls as miss probability rises (fewer hit emissions) and
	// grows with entry size; update_cost grows with key width.
	if ProbeCostPerTuple(1, 0, 10) <= ProbeCostPerTuple(1, 1, 10) {
		t.Fatal("probe cost vs miss prob inverted")
	}
	if ProbeCostPerTuple(1, 0, 10) <= ProbeCostPerTuple(1, 0, 1) {
		t.Fatal("probe cost vs entry size inverted")
	}
	if UpdateCostPerTuple(3) <= UpdateCostPerTuple(1) {
		t.Fatal("update cost vs key width inverted")
	}
}

// twoSpecsOnOneStream returns two placements probed at ΔR1's first
// CacheLookup on R1.A: the R2⋈R3 candidate and an R2-only span.
func twoSpecsOnOneStream(q *query.Query) (*planner.Spec, *planner.Spec) {
	a := planner.Candidates(q, [][]int{{1, 2}, {2, 0}, {1, 0}})[0]
	b := &planner.Spec{Pipeline: a.Pipeline, Start: a.Start, End: a.Start, Segment: []int{1}, KeyClasses: a.KeyClasses}
	return a, b
}

// TestShadowSharedPerProbeStream: specs on one probe stream share one
// estimator whose estimates and meter charges equal those of one estimator
// per spec; stopping one sharer leaves the other's estimate live; and a
// stream whose shadow has begun observing is not joined.
func TestShadowSharedPerProbeStream(t *testing.T) {
	cfg := Config{SampleProb: 0, Wd: 50, RateSpan: 20, Seed: 7}
	q, e, pf, meter := setup(t, cfg)
	_, eRef, ref, meterRef := setup(t, cfg)
	ref.DisableShadowSharing()
	specA, specB := twoSpecsOnOneStream(q)
	var a, b int
	for _, p := range []*Profiler{pf, ref} {
		a, b = p.AddSlot(specA), p.AddSlot(specB)
		p.StartShadow(a)
		p.StartShadow(b)
	}
	if pf.shadows[a] != pf.shadows[b] {
		t.Fatal("two specs on one probe stream got two shadows")
	}
	if ref.shadows[a] == ref.shadows[b] {
		t.Fatal("DisableShadowSharing still shares")
	}
	gen := synth.Counter(0, 30, 1)
	for i := 0; i < 2000; i++ {
		k := gen.Next()
		e.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{k}})
		eRef.Process(stream.Update{Op: stream.Insert, Rel: 0, Tuple: tuple.Tuple{k}})
	}
	if meter.Total() != meterRef.Total() {
		t.Fatalf("meter %d shared vs %d unshared: the tap must charge once per sharer", meter.Total(), meterRef.Total())
	}
	for _, s := range []int{a, b} {
		m, ok := pf.ShadowMissProb(s)
		mRef, okRef := ref.ShadowMissProb(s)
		d, dOK := pf.ShadowDistinct(s)
		dRef, dRefOK := ref.ShadowDistinct(s)
		if !ok || m != mRef || ok != okRef || d != dRef || dOK != dRefOK {
			t.Fatalf("slot %d: shared miss %v/%v distinct %v/%v, unshared %v/%v %v/%v", s, m, ok, d, dOK, mRef, okRef, dRef, dRefOK)
		}
	}

	missB, _ := pf.ShadowMissProb(b)
	pf.StopShadow(a)
	if _, ok := pf.ShadowMissProb(a); ok {
		t.Fatal("stopped spec still reporting")
	}
	if m, ok := pf.ShadowMissProb(b); !ok || m != missB {
		t.Fatalf("remaining sharer reads %v (ok=%v), want %v", m, ok, missB)
	}
	pf.StartShadow(a)
	if pf.shadows[a] == pf.shadows[b] {
		t.Fatal("a spec joined a shadow that had already observed keys")
	}
	if _, ok := pf.ShadowMissProb(a); ok {
		t.Fatal("fresh shadow reports a ready estimate")
	}
}

// TestWarmShadowCycleAllocFree: a pooled shadow keeps its tap closure, and
// the executor's tap slice keeps its capacity, so a warm profiling phase's
// shadow start and stop allocate nothing.
func TestWarmShadowCycleAllocFree(t *testing.T) {
	q, _, pf, _ := setup(t, Config{SampleProb: 0, Wd: 50, RateSpan: 20, Seed: 8})
	specA, specB := twoSpecsOnOneStream(q)
	a, b := pf.AddSlot(specA), pf.AddSlot(specB)
	cycle := func() {
		pf.StartShadow(a)
		pf.StartShadow(b)
		pf.StopShadow(a)
		pf.StopShadow(b)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("warm shadow start/stop allocates %.1f objects/cycle, want 0", allocs)
	}
}

// TestRestartSpansSkipsUntickedGap checks that a caller that stops ticking
// for a stretch (a paused engine) and restarts the spans before ticking
// again gets the rate of the ticks it made, not one diluted by the gap's
// meter time.
func TestRestartSpansSkipsUntickedGap(t *testing.T) {
	_, _, pf, meter := setup(t, Config{W: 2, RateSpan: 10})
	tick := func(n int) {
		for i := 0; i < n; i++ {
			meter.Charge(cost.WindowMaint)
			pf.TickN(0, 1)
		}
	}
	tick(40)
	want := pf.Rate(0)
	tick(5) // an open, partial span
	for i := 0; i < 1000; i++ {
		meter.Charge(cost.WindowMaint) // work no tick accounts for
	}
	pf.RestartSpans()
	tick(20)
	if got := pf.Rate(0); got < want*(1-1e-9) || got > want*(1+1e-9) {
		t.Fatalf("rate after the gap %.6g, want %.6g", got, want)
	}
}
