package bench

import (
	"fmt"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/xjoin"
)

// Fig13 — "Adaptivity to memory availability": the D8 setup (uniform rates,
// all pairwise selectivities 0.001), sweeping the memory available for
// storing join subresults. The paper's findings: the MJoin is flat (it
// stores no subresults); the XJoin is infeasible below its subresult
// footprint and steps up beyond it; adaptive caching degrades smoothly as
// memory shrinks and spans the whole range.
func Fig13(cfg RunConfig) *Experiment {
	pt := Table2()[7] // D8
	w := pt.workload(cfg.Seed)

	// MJoin: memory-insensitive; measure once.
	mEn, err := core.NewEngine(w.q, nil, core.Config{
		DisableCaching: true,
		ReoptInterval:  cfg.Measure / 8,
		Seed:           cfg.Seed,
	})
	if err != nil {
		panic(err)
	}
	mRate := measureEngine(mEn, w.source(), cfg)

	// XJoin: best tree, measured once; its subresult footprint defines the
	// infeasible region.
	tree := bestXJoin(w, cfg)
	xj := xjoin.New(w.q, tree, &cost.Meter{})
	xRate := measureXJoin(xj, w.source(), cfg)
	xBytes := xj.MemoryBytes()

	budgets := []float64{0, 5, 10, 15, 20, 25, 30, 40, 50, 60, 70} // KB
	var xs, m, x, a []float64
	for _, kb := range budgets {
		xs = append(xs, kb)
		m = append(m, mRate)
		if int(kb*1024) >= xBytes {
			x = append(x, xRate)
		} else {
			x = append(x, 0) // infeasible region
		}
		aEn, err := core.NewEngine(w.q, nil, core.Config{
			ReoptInterval: cfg.Measure / 8,
			GCQuota:       6,
			MemoryBudget:  int(kb * 1024),
			Seed:          cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		if kb == 0 {
			// Zero budget: caches can hold nothing; equivalent to MJoin
			// plus profiling overhead.
			aEn.SetMemoryBudget(0)
		}
		a = append(a, measureEngine(aEn, w.source(), cfg))
	}
	return &Experiment{
		ID:     "fig13",
		Title:  "Adaptivity to memory availability (D8 setup)",
		XLabel: "memory (KB)",
		YLabel: "avg processing rate (tuples/sec)",
		Series: []Series{
			{Label: "XJoin", X: xs, Y: x},
			{Label: "Adaptive caching", X: xs, Y: a},
			{Label: "MJoin", X: xs, Y: m},
		},
		Notes: []string{
			fmt.Sprintf("best XJoin %s requires %.1f KB for its join subresults; budgets below that are infeasible (rate 0)",
				tree, float64(xBytes)/1024),
		},
	}
}
