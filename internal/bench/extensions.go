package bench

import (
	"acache/internal/core"
	"acache/internal/synth"
)

// Extension experiments beyond the paper's evaluation.

// ExtSkew sweeps key skew: the three-way query with ΔT's probe keys drawn
// from a Zipf distribution of increasing skew parameter. The paper's
// workloads control hit probability through multiplicity; real streams are
// often skewed instead, and skew concentrates probes on few keys — the
// cache's best case. Not a paper figure; an extension.
func ExtSkew(cfg RunConfig) *Experiment {
	xs := []float64{1.1, 1.3, 1.5, 2, 2.5, 3}
	var mj, ca []float64
	for _, skew := range xs {
		w := &workload{
			q: threeWayQuery(),
			rels: []relSpec{
				{gen: synth.Tuples(synth.Uniform(0, 100, cfg.Seed)), window: 100, rate: 1},
				{gen: synth.Tuples(synth.Uniform(0, 100, cfg.Seed+1), synth.Uniform(0, 100, cfg.Seed+2)), window: 100, rate: 1},
				{gen: synth.Tuples(synth.Zipf(0, 100, skew, cfg.Seed+3)), window: 100, rate: 5},
			},
		}
		mj = append(mj, mjoinThreeWay(w, cfg, nil))
		ca = append(ca, cachedThreeWay(w, cfg, nil))
	}
	return &Experiment{
		ID:     "ext-skew",
		Title:  "Extension: probe-key skew (Zipf parameter) vs caching benefit",
		XLabel: "zipf s",
		YLabel: "avg processing rate (tuples/sec)",
		Series: []Series{
			{Label: "With caches", X: xs, Y: ca},
			{Label: "MJoin", X: xs, Y: mj},
			ratioSeries(xs, mj, ca),
		},
	}
}

// ExtBudgetAware compares the paper's modular select-then-allocate pipeline
// against the integrated budget-aware selection (the future work the paper
// defers) across a sweep of tight memory budgets on the D8 workload.
func ExtBudgetAware(cfg RunConfig) *Experiment {
	pt := Table2()[7]
	budgets := []float64{2, 4, 8, 16, 32}
	var modular, integrated []float64
	for _, kb := range budgets {
		for _, aware := range []bool{false, true} {
			w := pt.workload(cfg.Seed)
			en, err := core.NewEngine(w.q, nil, core.Config{
				ReoptInterval: cfg.Measure / 8,
				MemoryBudget:  int(kb * 1024),
				BudgetAware:   aware,
				Seed:          cfg.Seed,
			})
			if err != nil {
				panic(err)
			}
			rate := measureEngine(en, w.source(), cfg)
			if aware {
				integrated = append(integrated, rate)
			} else {
				modular = append(modular, rate)
			}
		}
	}
	return &Experiment{
		ID:     "ext-budget",
		Title:  "Extension: integrated budget-aware selection vs the paper's modular pipeline",
		XLabel: "memory (KB)",
		YLabel: "avg processing rate (tuples/sec)",
		Series: []Series{
			{Label: "Modular (paper)", X: budgets, Y: modular},
			{Label: "Integrated", X: budgets, Y: integrated},
		},
	}
}

// ExtAdaptivityOverhead quantifies the paper's "near-zero adaptivity
// overhead" claim (visible in Figure 12 pre-burst): the same stationary
// workload run with the full adaptive machinery (profiling, shadows,
// re-optimization) against the same plan forced statically — the rate gap
// is the price of staying adaptive.
func ExtAdaptivityOverhead(cfg RunConfig) *Experiment {
	multiplicities := []float64{1, 5, 10}
	var static, adaptive []float64
	for _, r := range multiplicities {
		s := defaultThreeWay()
		s.multT = int(r)
		s.rateT = r
		w := s.workload()
		static = append(static, cachedThreeWay(w, cfg, nil))
		en, err := core.NewEngine(w.q, threeWayOrdering(), core.Config{
			ReoptInterval: cfg.Measure / 8,
			GCQuota:       6,
			Seed:          cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		adaptive = append(adaptive, measureEngine(en, w.source(), cfg))
	}
	return &Experiment{
		ID:     "ext-overhead",
		Title:  "Extension: adaptivity overhead — adaptive engine vs the same plan forced statically",
		XLabel: "multiplicity",
		YLabel: "avg processing rate (tuples/sec)",
		Series: []Series{
			{Label: "Static (forced cache)", X: multiplicities, Y: static},
			{Label: "Adaptive (full machinery)", X: multiplicities, Y: adaptive},
		},
	}
}

// Extensions runs the extension experiments.
func Extensions(cfg RunConfig) []*Experiment {
	return []*Experiment{ExtSkew(cfg), ExtBudgetAware(cfg), ExtAdaptivityOverhead(cfg)}
}
