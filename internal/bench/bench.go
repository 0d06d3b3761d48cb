// Package bench reproduces every table and figure of the paper's
// experimental evaluation (Section 7). Each experiment builds the paper's
// workload from the synthetic generator, runs the competing plans on the
// deterministic cost model, and reports the same rows/series the paper
// plots: absolute average tuple-processing rates and the caching-to-MJoin
// time ratios.
//
// Rates are appends (input stream tuples) per simulated second, exactly the
// paper's "maximum load the system can handle" metric under the work-unit
// substitution documented in DESIGN.md; all adaptivity overheads (profiling,
// shadow Bloom filters, re-optimization) are charged to the same meter and
// therefore included, as in the paper.
package bench

import (
	"fmt"
	"strings"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
	"acache/internal/xjoin"
)

// Series is one plotted line: parallel X/Y points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	ID     string // e.g. "fig6"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Table renders the experiment as an aligned text table, one row per X.
func (e *Experiment) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", e.ID, e.Title)
	fmt.Fprintf(&b, "%-14s", e.XLabel)
	for _, s := range e.Series {
		fmt.Fprintf(&b, "  %16s", s.Label)
	}
	b.WriteByte('\n')
	if len(e.Series) > 0 {
		for i := range e.Series[0].X {
			fmt.Fprintf(&b, "%-14.4g", e.Series[0].X[i])
			for _, s := range e.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&b, "  %16.1f", s.Y[i])
				} else {
					fmt.Fprintf(&b, "  %16s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the experiment as plot-ready CSV: a header of the x label and
// series labels, then one row per x value. Notes become trailing comment
// lines.
func (e *Experiment) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(e.XLabel))
	for _, s := range e.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	if len(e.Series) > 0 {
		for i := range e.Series[0].X {
			fmt.Fprintf(&b, "%g", e.Series[0].X[i])
			for _, s := range e.Series {
				b.WriteByte(',')
				if i < len(s.Y) {
					fmt.Fprintf(&b, "%g", s.Y[i])
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// RunConfig scales experiment length: the full runs match the paper's
// horizons; tests shrink them.
type RunConfig struct {
	// Warmup and Measure are append counts per measured plan.
	Warmup, Measure int
	Seed            int64
}

// Full returns the default full-scale configuration.
func Full() RunConfig { return RunConfig{Warmup: 30_000, Measure: 60_000, Seed: 42} }

// Quick returns a scaled-down configuration for tests.
func Quick() RunConfig { return RunConfig{Warmup: 3_000, Measure: 6_000, Seed: 42} }

// relSpec describes one input stream for a workload.
type relSpec struct {
	gen    stream.TupleGen
	window int
	rate   float64
}

// workload couples a query with its input streams.
type workload struct {
	q    *query.Query
	rels []relSpec
}

func (w *workload) source() *stream.Source {
	rs := make([]stream.RelStream, len(w.rels))
	for i, r := range w.rels {
		rs[i] = stream.RelStream{Gen: r.gen, WindowSize: r.window, Rate: r.rate}
	}
	return stream.NewSource(rs)
}

// measureEngine drives the engine over a fresh source: warmup appends, then
// measure appends with the meter differenced. Returns appends per simulated
// second.
func measureEngine(en *core.Engine, src *stream.Source, cfg RunConfig) float64 {
	for src.TotalAppends() < uint64(cfg.Warmup) {
		en.Process(src.Next())
	}
	start := en.Meter().Total()
	startAppends := src.TotalAppends()
	for src.TotalAppends() < startAppends+uint64(cfg.Measure) {
		en.Process(src.Next())
	}
	return cost.Rate(int(src.TotalAppends()-startAppends), en.Meter().Total()-start)
}

// measureXJoin mirrors measureEngine for an XJoin baseline.
func measureXJoin(x *xjoin.XJoin, src *stream.Source, cfg RunConfig) float64 {
	for src.TotalAppends() < uint64(cfg.Warmup) {
		x.Process(src.Next())
	}
	start := x.Meter().Total()
	startAppends := src.TotalAppends()
	for src.TotalAppends() < startAppends+uint64(cfg.Measure) {
		x.Process(src.Next())
	}
	return cost.Rate(int(src.TotalAppends()-startAppends), x.Meter().Total()-start)
}

// bestXJoin trials every tree shape on a short prefix of the workload and
// returns the best performer's shape — the paper's "X is chosen by
// exhaustive search".
func bestXJoin(w *workload, cfg RunConfig) *xjoin.Tree {
	rels := make([]int, w.q.N())
	for i := range rels {
		rels[i] = i
	}
	trial := RunConfig{Warmup: cfg.Warmup / 4, Measure: cfg.Measure / 4, Seed: cfg.Seed}
	if trial.Warmup == 0 {
		trial.Warmup = 1
	}
	if trial.Measure == 0 {
		trial.Measure = 1
	}
	var best *xjoin.Tree
	bestRate := -1.0
	for _, tr := range xjoin.Enumerate(rels) {
		x := xjoin.New(w.q, tr, &cost.Meter{})
		if rate := measureXJoin(x, w.source(), trial); rate > bestRate {
			bestRate = rate
			best = tr
		}
	}
	return best
}

// mustQuery panics on a malformed experiment query — a harness bug.
func mustQuery(schemas []*tuple.Schema, preds []query.Pred) *query.Query {
	q, err := query.New(schemas, preds)
	if err != nil {
		panic(err)
	}
	return q
}

// threeWayQuery is Section 7.1's R(A) ⋈_A S(A,B) ⋈_B T(B); relations are
// indexed R=0, S=1, T=2.
func threeWayQuery() *query.Query {
	return mustQuery(
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
}

// nWayQuery is Section 7.1's R1(A) ⋈_A … ⋈_A Rn(A).
func nWayQuery(n int) *query.Query {
	schemas := make([]*tuple.Schema, n)
	var preds []query.Pred
	for i := 0; i < n; i++ {
		schemas[i] = tuple.RelationSchema(i, "A")
		if i > 0 {
			preds = append(preds, query.Pred{
				Left:  tuple.Attr{Rel: i - 1, Name: "A"},
				Right: tuple.Attr{Rel: i, Name: "A"},
			})
		}
	}
	return mustQuery(schemas, preds)
}

// ratioSeries computes the paper's relative graphs: the tuple-processing
// time ratio of caching to MJoin, time_C/time_M = rate_M/rate_C.
func ratioSeries(x []float64, mjoin, caching []float64) Series {
	y := make([]float64, len(x))
	for i := range x {
		if caching[i] > 0 {
			y[i] = mjoin[i] / caching[i]
		}
	}
	return Series{Label: "time ratio C/M", X: x, Y: y}
}
