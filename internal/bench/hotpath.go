package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"acache/internal/core"
)

// The hotpath experiment measures the real (wall-clock and heap) cost of the
// engine's per-update hot path — the quantity the zero-allocation storage
// layer optimizes. Like the sharding experiment it steps outside the
// deterministic cost meter: meter units are identical by construction across
// storage-layer rewrites, so only ns/op and allocs/op can show the effect.

// HotpathPoint is one measured configuration: the steady-state (post-warmup)
// per-update cost of the n-way join workload of Fig9.
type HotpathPoint struct {
	Relations   int     `json:"relations"`
	Caching     bool    `json:"caching"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// HotpathReport is the full run, JSON-ready for BENCH_hotpath.json.
// GOMAXPROCS and NumCPU record the host the numbers were taken on — they are
// wall-clock measurements and do not transfer across machines.
type HotpathReport struct {
	Warmup     int            `json:"warmup_appends"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Points     []HotpathPoint `json:"points"`
}

// RunHotpath measures the warm per-update cost of the Fig9 n-way workload
// for each relation count, with the adaptive engine and with the plain MJoin
// (caching disabled). Warmup fills windows and lets the adaptive engine
// settle on a cache set before the timer starts.
func RunHotpath(ns []int, cfg RunConfig) *HotpathReport {
	rep := &HotpathReport{
		Warmup:     cfg.Warmup,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	for _, n := range ns {
		rep.Points = append(rep.Points, runHotpathPoint(n, true, cfg))
		rep.Points = append(rep.Points, runHotpathPoint(n, false, cfg))
	}
	return rep
}

func runHotpathPoint(n int, caching bool, cfg RunConfig) HotpathPoint {
	w := nWayWorkload(n)
	c := core.Config{Seed: cfg.Seed}
	if caching {
		c.ReoptInterval = cfg.Measure / 8
		c.GCQuota = 6
	} else {
		c.DisableCaching = true
	}
	en, err := core.NewEngine(w.q, nil, c)
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
	return HotpathPoint{
		Relations:   n,
		Caching:     caching,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// benchMedian runs testing.Benchmark three times and returns the run with
// the median ns/op. Single runs on a shared or throttled host swing by tens
// of percent — more than the adaptivity overheads these experiments resolve —
// and the median of three recovers a stable figure without averaging in a
// stalled run. The workload source persists across runs, so each run
// continues the same warm steady state.
func benchMedian(fn func(b *testing.B)) testing.BenchmarkResult {
	var rs [3]testing.BenchmarkResult
	for i := range rs {
		rs[i] = testing.Benchmark(fn)
	}
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && nsPerOp(rs[j]) < nsPerOp(rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	return rs[1]
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// JSON renders the report for BENCH_hotpath.json.
func (r *HotpathReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Experiment renders the report in the package's common table/chart form.
func (r *HotpathReport) Experiment() *Experiment {
	var x, cacheNs, mjoinNs, cacheAllocs []float64
	for _, pt := range r.Points {
		if pt.Caching {
			x = append(x, float64(pt.Relations))
			cacheNs = append(cacheNs, pt.NsPerOp)
			cacheAllocs = append(cacheAllocs, float64(pt.AllocsPerOp))
		} else {
			mjoinNs = append(mjoinNs, pt.NsPerOp)
		}
	}
	return &Experiment{
		ID:     "hotpath",
		Title:  "Hot-path cost per update (wall clock)",
		XLabel: "relations",
		YLabel: "ns/update",
		Series: []Series{
			{Label: "With caches (ns/op)", X: x, Y: cacheNs},
			{Label: "MJoin (ns/op)", X: x, Y: mjoinNs},
			{Label: "With caches (allocs/op)", X: x, Y: cacheAllocs},
		},
		Notes: []string{fmt.Sprintf("GOMAXPROCS=%d, NumCPU=%d, %s (wall-clock measurement)",
			r.GOMAXPROCS, r.NumCPU, r.GoVersion)},
	}
}
