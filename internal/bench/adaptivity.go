package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"acache/internal/core"
)

// The adaptivity experiment isolates what this layer of the system costs:
// the wall-clock price of being adaptive at all (profiling plus
// re-optimization over a plain MJoin). It also runs the exactness
// differential inline — the fast paths (epoch-gated readiness, memoized
// candidate enumeration, reused selection buffers) must reproduce the
// reference implementation's decisions bit-for-bit — so the published
// overhead numbers are backed by a decision-identity check on the same
// binary that produced them.

// AdaptivityPoint is one measured (relations, mode) configuration.
type AdaptivityPoint struct {
	Relations int `json:"relations"`
	// Mode: "mjoin" (caching disabled) or "exact" (the adaptive engine).
	Mode        string  `json:"mode"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	// ReoptNsPerOp amortizes the re-optimizer's wall clock over every
	// update of the run (zero for mjoin).
	ReoptNsPerOp float64 `json:"reopt_ns_per_op"`
	// CandidateRescores is the run's total.
	CandidateRescores uint64 `json:"candidate_rescores"`
}

// AdaptivityReport is the full run, JSON-ready for BENCH_adaptivity.json.
type AdaptivityReport struct {
	Warmup     int    `json:"warmup_appends"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// DecisionsIdentical is the inline differential: true when the
	// fast-path engine's snapshot and cache states match the
	// ReferenceAdaptivity engine's exactly.
	DecisionsIdentical bool              `json:"decisions_identical"`
	Points             []AdaptivityPoint `json:"points"`
}

// RunAdaptivity measures the warm per-update cost of the Fig9 n-way
// workload as a plain MJoin and with adaptivity, and runs the
// decision-identity differential.
func RunAdaptivity(ns []int, cfg RunConfig) *AdaptivityReport {
	rep := &AdaptivityReport{
		Warmup:     cfg.Warmup,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	rep.DecisionsIdentical = adaptivityDifferential(ns[0], cfg)
	for _, n := range ns {
		rep.Points = append(rep.Points,
			runAdaptivityPoint(n, "mjoin", cfg), runAdaptivityPoint(n, "exact", cfg))
	}
	return rep
}

func adaptivityConfig(mode string, cfg RunConfig) core.Config {
	c := core.Config{Seed: cfg.Seed}
	if mode == "mjoin" {
		c.DisableCaching = true
		return c
	}
	c.ReoptInterval = cfg.Measure / 8
	c.GCQuota = 6
	return c
}

func runAdaptivityPoint(n int, mode string, cfg RunConfig) AdaptivityPoint {
	w := nWayWorkload(n)
	en, err := core.NewEngine(w.q, nil, adaptivityConfig(mode, cfg))
	if err != nil {
		panic(err)
	}
	src := w.source()
	for src.TotalAppends() < uint64(cfg.Warmup) {
		en.Process(src.Next())
	}
	r := benchMedian(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			en.Process(src.Next())
		}
	})
	snap := en.Snapshot()
	pt := AdaptivityPoint{
		Relations:         n,
		Mode:              mode,
		NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:       r.AllocsPerOp(),
		Iterations:        r.N,
		CandidateRescores: snap.CandidateRescores,
	}
	if snap.Updates > 0 {
		pt.ReoptNsPerOp = float64(snap.ReoptNanos) / float64(snap.Updates)
	}
	return pt
}

// adaptivityDifferential drives the identical update sequence through a
// fast-path engine and a ReferenceAdaptivity engine and reports whether
// every decision-bearing counter and cache state came out identical.
// Wall-clock fields are excluded; everything else must match.
func adaptivityDifferential(n int, cfg RunConfig) bool {
	// Two independent workload instances: the value generators are
	// stateful, so both engines need their own copy of the same stream.
	wA, wB := nWayWorkload(n), nWayWorkload(n)
	mk := func(w *workload, ref bool) *core.Engine {
		c := adaptivityConfig("exact", cfg)
		c.ReferenceAdaptivity = ref
		en, err := core.NewEngine(w.q, nil, c)
		if err != nil {
			panic(err)
		}
		return en
	}
	fast, refEn := mk(wA, false), mk(wB, true)
	srcA, srcB := wA.source(), wB.source()
	total := cfg.Warmup + cfg.Measure
	for srcA.TotalAppends() < uint64(total) {
		if fast.Process(srcA.Next()) != refEn.Process(srcB.Next()) {
			return false
		}
	}
	a, b := fast.Snapshot(), refEn.Snapshot()
	a.ReoptNanos, b.ReoptNanos = 0, 0
	return a == b && fmt.Sprint(fast.CacheStates()) == fmt.Sprint(refEn.CacheStates())
}

// JSON renders the report for BENCH_adaptivity.json.
func (r *AdaptivityReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Experiment renders the report in the package's common table/chart form.
func (r *AdaptivityReport) Experiment() *Experiment {
	series := map[string]*Series{}
	var order []string
	for _, pt := range r.Points {
		s, ok := series[pt.Mode]
		if !ok {
			s = &Series{Label: pt.Mode + " (ns/op)"}
			series[pt.Mode] = s
			order = append(order, pt.Mode)
		}
		s.X = append(s.X, float64(pt.Relations))
		s.Y = append(s.Y, pt.NsPerOp)
	}
	e := &Experiment{
		ID:     "adaptivity",
		Title:  "Adaptivity overhead per update (wall clock)",
		XLabel: "relations",
		YLabel: "ns/update",
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d, NumCPU=%d, %s (wall-clock measurement)",
				r.GOMAXPROCS, r.NumCPU, r.GoVersion),
			fmt.Sprintf("decision identity vs reference implementation: %v",
				r.DecisionsIdentical),
		},
	}
	for _, m := range order {
		e.Series = append(e.Series, *series[m])
	}
	return e
}
