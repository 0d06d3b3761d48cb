package bench

import (
	"fmt"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/synth"
	"acache/internal/xjoin"
)

// SamplePoint is one row of Table 2: relative stream arrival rates (to T)
// and pairwise join selectivities for the 4-way join
// R(A) ⋈ S(A) ⋈ T(A) ⋈ U(A). Relations are indexed R=0, S=1, T=2, U=3.
type SamplePoint struct {
	Name  string
	Rates [4]float64
	// Sel holds the six pairwise selectivities in the paper's column
	// order: RS, RT, RU, ST, SU, TU.
	Sel [6]float64
}

// Table2 reproduces the paper's eight sample points.
func Table2() []SamplePoint {
	return []SamplePoint{
		{"D1", [4]float64{10, 1, 1, 1}, [6]float64{0.004, 0.005, 0.005, 0.007, 0.0045, 0.005}},
		{"D2", [4]float64{8, 1, 1, 8}, [6]float64{0.004, 0.005, 0.005, 0.007, 0.0045, 0.005}},
		{"D3", [4]float64{10, 15, 1, 5}, [6]float64{0.003, 0.005, 0.007, 0.0045, 0.006, 0.008}},
		{"D4", [4]float64{1, 1, 1, 1}, [6]float64{0.003, 0.004, 0.0067, 0.002, 0.0023, 0.0027}},
		{"D5", [4]float64{4, 1, 1, 4}, [6]float64{0.005, 0.007, 0.005, 0.006, 0.005, 0.002}},
		{"D6", [4]float64{1, 1, 1, 1}, [6]float64{0.005, 0.0033, 0.0025, 0.0067, 0.005, 0.0075}},
		{"D7", [4]float64{1, 1, 1, 1}, [6]float64{0, 0, 0, 0, 0, 0}},
		{"D8", [4]float64{1, 1, 1, 1}, [6]float64{0.001, 0.001, 0.001, 0.001, 0.001, 0.001}},
	}
}

// selMatrix expands the six pairwise selectivities into a symmetric matrix.
func (p SamplePoint) selMatrix() [][]float64 {
	m := make([][]float64, 4)
	for i := range m {
		m[i] = make([]float64, 4)
	}
	pairs := [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for k, pr := range pairs {
		m[pr[0]][pr[1]] = p.Sel[k]
		m[pr[1]][pr[0]] = p.Sel[k]
	}
	return m
}

// workload builds the point's input streams: uniform draws over nested
// domains fitted to the selectivity matrix (disjoint domains when every
// selectivity is zero), windows of 200 tuples, rates per Table 2.
func (p SamplePoint) workload(seed int64) *workload {
	w := &workload{q: nWayQuery(4)}
	const window = 200
	domains := synth.FitDomains(p.selMatrix())
	allZero := true
	for _, d := range domains {
		if d != 0 {
			allZero = false
		}
	}
	var gens []synth.ValueGen
	if allZero {
		gens = synth.DisjointUniform(4, 1000, seed)
	} else {
		gens = make([]synth.ValueGen, 4)
		for i, d := range domains {
			if d == 0 {
				d = 1_000_000 // no positive selectivity with any partner
			}
			gens[i] = synth.Uniform(0, d, seed+int64(i))
		}
	}
	for i := 0; i < 4; i++ {
		w.rels = append(w.rels, relSpec{
			gen:    synth.Tuples(gens[i]),
			window: window,
			rate:   p.Rates[i],
		})
	}
	return w
}

// Fig11 — "Performance of stream-join plans": the four plan families at the
// eight Table 2 sample points. M = MJoin with the engine's fixed
// join-graph ordering (no caches), X = best XJoin (exhaustive tree search), P = caching with the
// prefix invariant, G = caching with globally-consistent candidates
// (quota m = 6). The paper's findings: X, P, G ≫ M almost always; X > P at
// D1–D3 (the prefix invariant blocks a high-benefit cache); G ≈ X; and G >
// X at D2, D3, D4, D7 (an XJoin can materialize at most one 3-way
// subresult, G is unrestricted).
func Fig11(cfg RunConfig) *Experiment {
	points := Table2()
	xs := make([]float64, len(points))
	var m, x, pp, g []float64
	var notes []string
	for i, pt := range points {
		xs[i] = float64(i + 1)
		w := pt.workload(cfg.Seed)

		mEn, err := core.NewEngine(w.q, nil, core.Config{
			DisableCaching: true,
			ReoptInterval:  cfg.Measure / 8,
			Seed:           cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		m = append(m, measureEngine(mEn, w.source(), cfg))

		tree := bestXJoin(w, cfg)
		xj := xjoin.New(w.q, tree, &cost.Meter{})
		x = append(x, measureXJoin(xj, w.source(), cfg))

		pEn, err := core.NewEngine(w.q, nil, core.Config{
			ReoptInterval: cfg.Measure / 8,
			Selection:     core.SelectExhaustive,
			Seed:          cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		pp = append(pp, measureEngine(pEn, w.source(), cfg))

		gEn, err := core.NewEngine(w.q, nil, core.Config{
			ReoptInterval: cfg.Measure / 8,
			GCQuota:       6,
			Selection:     core.SelectExhaustive,
			Seed:          cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		g = append(g, measureEngine(gEn, w.source(), cfg))

		notes = append(notes, fmt.Sprintf("%s: best XJoin %s; P used %d caches, G used %d",
			pt.Name, tree, len(pEn.UsedCaches()), len(gEn.UsedCaches())))
	}
	return &Experiment{
		ID:     "fig11",
		Title:  "Performance of stream-join plans at Table 2's sample points D1–D8",
		XLabel: "sample point",
		YLabel: "max input load (tuples/sec)",
		Series: []Series{
			{Label: "M (MJoin)", X: xs, Y: m},
			{Label: "X (XJoin)", X: xs, Y: x},
			{Label: "P (prefix caching)", X: xs, Y: pp},
			{Label: "G (global caching)", X: xs, Y: g},
		},
		Notes: notes,
	}
}
