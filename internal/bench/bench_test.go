package bench

import (
	"math"
	"testing"

	"acache/internal/core"
)

// tiny returns a very small run configuration so shape tests stay fast.
func tiny() RunConfig { return RunConfig{Warmup: 1500, Measure: 3000, Seed: 42} }

func finitePositive(t *testing.T, s Series) {
	t.Helper()
	if len(s.Y) == 0 {
		t.Fatalf("series %q empty", s.Label)
	}
	for i, y := range s.Y {
		if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
			t.Fatalf("series %q point %d = %v", s.Label, i, y)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	e := Fig6(tiny())
	for _, s := range e.Series {
		finitePositive(t, s)
	}
	cache, mjoin := e.Series[0].Y, e.Series[1].Y
	// Caching must beat MJoin at high multiplicity, and the relative gap
	// must grow from multiplicity 1 to 10.
	last := len(cache) - 1
	if cache[last] <= mjoin[last] {
		t.Fatalf("at multiplicity 10 caching (%.0f) should beat MJoin (%.0f)", cache[last], mjoin[last])
	}
	r1 := mjoin[0] / cache[0]
	r10 := mjoin[last] / cache[last]
	if r10 >= r1 {
		t.Fatalf("time ratio should fall with hit probability: ratio(1)=%.3f ratio(10)=%.3f", r1, r10)
	}
}

func TestFig7Shape(t *testing.T) {
	e := Fig7(tiny())
	for _, s := range e.Series {
		finitePositive(t, s)
	}
	cache, mjoin := e.Series[0].Y, e.Series[1].Y
	wins := 0
	for i := range cache {
		if cache[i] > mjoin[i] {
			wins++
		}
	}
	if wins < len(cache)-1 {
		t.Fatalf("caching should win across (almost) the whole selectivity range; won %d/%d", wins, len(cache))
	}
}

func TestFig8Shape(t *testing.T) {
	e := Fig8(tiny())
	for _, s := range e.Series {
		finitePositive(t, s)
	}
	ratio := e.Series[2].Y
	// Caching's relative advantage should erode as the update/probe ratio
	// grows (the ratio series rises toward 1).
	if ratio[len(ratio)-1] <= ratio[0] {
		t.Fatalf("time ratio should rise with update rate: first %.3f last %.3f", ratio[0], ratio[len(ratio)-1])
	}
}

func TestFig10Shape(t *testing.T) {
	e := Fig10(tiny())
	for _, s := range e.Series {
		finitePositive(t, s)
	}
	ratio := e.Series[2].Y
	// The relative benefit of caching must grow (ratio fall) with join cost.
	if ratio[len(ratio)-1] >= ratio[0] {
		t.Fatalf("time ratio should fall with join cost: first %.3f last %.3f", ratio[0], ratio[len(ratio)-1])
	}
	cache, mjoin := e.Series[0].Y, e.Series[1].Y
	last := len(cache) - 1
	if cache[last] <= mjoin[last] {
		t.Fatalf("at |S|=2000 caching (%.0f) must beat the nested-loop MJoin (%.0f)", cache[last], mjoin[last])
	}
}

func TestFig9Shape(t *testing.T) {
	e := Fig9(tiny())
	for _, s := range e.Series {
		finitePositive(t, s)
	}
	cache, mjoin := e.Series[0].Y, e.Series[1].Y
	// The paper's finding: the improvement is maintained across the range;
	// at larger n the cacheable surface grows, so caching must win clearly
	// somewhere in the upper half.
	won := false
	for i := len(cache) / 2; i < len(cache); i++ {
		if cache[i] > 1.05*mjoin[i] {
			won = true
		}
	}
	if !won {
		t.Fatalf("caching never clearly won at large n: cache %v vs mjoin %v", cache, mjoin)
	}
}

func TestFig12Shape(t *testing.T) {
	e := Fig12(tiny())
	adaptive, staticA, staticB := e.Series[0].Y, e.Series[1].Y, e.Series[2].Y
	n := len(adaptive)
	if n < 8 {
		t.Fatalf("too few buckets: %d", n)
	}
	// Pre-burst: adaptive within 15% of static A (the pre-burst winner).
	if adaptive[1] < 0.85*staticA[1] {
		t.Fatalf("pre-burst adaptive %v too far below static A %v", adaptive[1], staticA[1])
	}
	// Post-burst: static B wins over static A, and adaptive beats static A
	// (it must have switched plans).
	if staticB[n-1] <= staticA[n-1] {
		t.Fatalf("burst did not invert the static plans: A %v B %v", staticA[n-1], staticB[n-1])
	}
	if adaptive[n-1] <= 1.05*staticA[n-1] {
		t.Fatalf("post-burst adaptive %v did not leave the stale plan %v behind",
			adaptive[n-1], staticA[n-1])
	}
}

func TestFig13Shape(t *testing.T) {
	e := Fig13(tiny())
	xj, adaptive, mjoin := e.Series[0].Y, e.Series[1].Y, e.Series[2].Y
	// MJoin flat.
	for i := 1; i < len(mjoin); i++ {
		if mjoin[i] != mjoin[0] {
			t.Fatalf("MJoin series not flat: %v", mjoin)
		}
	}
	// XJoin: infeasible (0) below its footprint, constant above.
	if xj[0] != 0 {
		t.Fatalf("XJoin feasible at zero memory: %v", xj)
	}
	last := xj[len(xj)-1]
	if last <= 0 {
		t.Fatalf("XJoin never feasible: %v", xj)
	}
	// Adaptive: positive everywhere, and its large-memory rate beats its
	// zero-memory rate (caches pay once they fit).
	for i, y := range adaptive {
		if y <= 0 {
			t.Fatalf("adaptive rate 0 at point %d", i)
		}
	}
	if adaptive[len(adaptive)-1] <= adaptive[0] {
		t.Fatalf("memory did not help the adaptive plan: %v", adaptive)
	}
}

// TestFig11D8Shape locks the plan-spectrum story at one point: adaptive
// prefix caching must beat the plain MJoin at D8 once given room to
// converge. Guarded by -short because it needs a longer horizon than the
// other shape tests.
func TestFig11D8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := RunConfig{Warmup: 8_000, Measure: 20_000, Seed: 42}
	pt := Table2()[7]
	w := pt.workload(cfg.Seed)
	mEn, err := core.NewEngine(w.q, nil, core.Config{DisableCaching: true, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	m := measureEngine(mEn, w.source(), cfg)
	pEn, err := core.NewEngine(w.q, nil, core.Config{
		ReoptInterval: cfg.Measure / 8,
		Selection:     core.SelectExhaustive,
		Seed:          cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := measureEngine(pEn, w.source(), cfg)
	if p < 1.02*m {
		t.Fatalf("P (%.0f) should clearly beat M (%.0f) at D8", p, m)
	}
}

func TestTable2Matrix(t *testing.T) {
	pts := Table2()
	if len(pts) != 8 {
		t.Fatalf("Table 2 has %d points, want 8", len(pts))
	}
	m := pts[2].selMatrix() // D3
	if m[0][1] != 0.003 || m[1][0] != 0.003 || m[2][3] != 0.008 {
		t.Fatalf("selMatrix wrong: %v", m)
	}
	for i := 0; i < 4; i++ {
		if m[i][i] != 0 {
			t.Fatalf("diagonal must be 0")
		}
	}
}

func TestExperimentTableRenders(t *testing.T) {
	e := &Experiment{
		ID: "figX", Title: "t", XLabel: "x",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
		Notes:  []string{"n"},
	}
	out := e.Table()
	if out == "" || len(out) < 10 {
		t.Fatalf("table render too small: %q", out)
	}
}
