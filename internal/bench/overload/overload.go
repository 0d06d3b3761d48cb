// Package overload measures the resilience layer under sustained pressure.
// It lives outside package bench because it drives the public acache API
// (the degradation ladder is implemented there), and package bench is
// imported by acache's own benchmarks.
package overload

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"acache"

	"acache/internal/bench"
)

// The overload experiment measures what the resilience layer buys under
// sustained pressure. Worker capacity is reduced with an injected per-update
// slowdown (deterministic, so every configuration faces the same deficit)
// while the ingress offers as fast as it can; each append may wait 500µs for
// mailbox room, and a row still without room is refused before it enters its
// window and counted as shed. Each load level runs twice — with and without
// the cache-first degradation ladder — to quantify the paper's §3.2 story as an
// overload defense: pausing caches is free to switch and keeps results
// exact, so it is the first thing to sacrifice, before any tuple is dropped.
// Wall-clock based: the numbers do not transfer across hosts.

// OverloadPoint is one (load level, ladder setting) measurement.
type OverloadPoint struct {
	Load string `json:"load"`
	// SlowEveryNth / SlowMicros define the injected worker slowdown: every
	// nth update costs an extra SlowMicros µs on every shard (0 = none).
	SlowEveryNth int   `json:"slow_every_nth"`
	SlowMicros   int64 `json:"slow_micros"`
	// Ladder is whether the cache-first degradation ladder was enabled.
	Ladder bool `json:"cache_first_ladder"`
	// Offered is the appends offered; Shed counts the rows dropped before
	// their window (ladder ingress drops plus rows refused past their
	// deadline), and ShedRate is Shed/Offered.
	Offered  uint64  `json:"offered_appends"`
	Shed     uint64  `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	Outputs  uint64  `json:"outputs"`
	// MaxDegradeLevel is the highest ladder rung observed (0 when off).
	MaxDegradeLevel int     `json:"max_degrade_level"`
	WallSeconds     float64 `json:"wall_seconds"`
	AppendsPerSec   float64 `json:"appends_per_sec"`
	// AdmissionWaitSeconds is total ingress time spent waiting for mailbox
	// room.
	AdmissionWaitSeconds float64 `json:"admission_wait_seconds"`
}

// OverloadReport is the full run, JSON-ready for BENCH_overload.json.
type OverloadReport struct {
	Relations  int             `json:"relations"`
	Window     int             `json:"window"`
	Shards     int             `json:"shards"`
	BatchSize  int             `json:"batch_size"`
	Measure    int             `json:"measure_appends"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Points     []OverloadPoint `json:"points"`
}

// overloadQuery is an n-way star join over count windows — enough join work
// that shedding and cache pausing have real effects on throughput.
func overloadQuery(n, window int) *acache.Query {
	q := acache.NewQuery()
	for i := 0; i < n; i++ {
		q.WindowedRelation(fmt.Sprintf("R%d", i), window, "A", "B")
	}
	for i := 1; i < n; i++ {
		q.Join("R0.A", fmt.Sprintf("R%d.A", i))
	}
	return q
}

// RunOverload sweeps load levels (injected worker slowdowns) and, at each,
// measures throughput and shed rate with and without the degradation ladder.
func Run(cfg bench.RunConfig) *OverloadReport {
	const (
		nRels  = 4
		window = 64
		shards = 4
		batch  = 8
	)
	rep := &OverloadReport{
		Relations:  nRels,
		Window:     window,
		Shards:     shards,
		BatchSize:  batch,
		Measure:    cfg.Measure,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	loads := []struct {
		name string
		nth  int
		d    time.Duration
	}{
		{"baseline", 0, 0},
		{"mild", 8, 100 * time.Microsecond},
		{"heavy", 2, 200 * time.Microsecond},
	}
	for _, load := range loads {
		for _, ladder := range []bool{false, true} {
			rep.Points = append(rep.Points,
				runOverloadPoint(load.name, load.nth, load.d, ladder, nRels, window, shards, batch, cfg))
		}
	}
	return rep
}

func runOverloadPoint(name string, nth int, d time.Duration, ladder bool,
	nRels, window, shards, batch int, cfg bench.RunConfig) OverloadPoint {
	// Latency-budget admission: an append absorbs transient backlog by
	// waiting up to appendBudget for mailbox room, then the row is refused —
	// so the baseline sheds ~0 and shed rate grows with the genuine capacity
	// deficit, not with burstiness.
	var r acache.ResilienceOptions
	if nth > 0 {
		r.FaultInjector = acache.NewFaultInjector().
			SlowEvery(-1, 1, uint64(nth), d)
	}
	if ladder {
		r.DegradeHighWater = 0.75
	}
	eng, err := overloadQuery(nRels, window).BuildSharded(
		acache.Options{Seed: cfg.Seed},
		acache.ShardOptions{Shards: shards, BatchSize: batch, Resilience: r},
	)
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	maxLevel := 0
	refused := uint64(0)
	start := time.Now()
	for i := 0; i < cfg.Measure; i++ {
		rel := fmt.Sprintf("R%d", rng.Intn(nRels))
		if !appendWithin(eng, rel, rng.Int63n(16), rng.Int63n(64)) {
			refused++
		}
		if lvl := eng.DegradeLevel(); lvl > maxLevel {
			maxLevel = lvl
		}
	}
	eng.Flush()
	wall := time.Since(start).Seconds()

	st := eng.Stats()
	pt := OverloadPoint{
		Load:                 name,
		SlowEveryNth:         nth,
		SlowMicros:           d.Microseconds(),
		Ladder:               ladder,
		Offered:              uint64(cfg.Measure),
		Shed:                 st.Shedded + refused,
		Outputs:              st.Outputs,
		MaxDegradeLevel:      maxLevel,
		WallSeconds:          wall,
		AdmissionWaitSeconds: st.AdmissionWaitSeconds,
	}
	if pt.Offered > 0 {
		pt.ShedRate = float64(pt.Shed) / float64(pt.Offered)
	}
	if wall > 0 {
		pt.AppendsPerSec = float64(cfg.Measure) / wall
	}
	return pt
}

// appendBudget is how long one append may wait for mailbox room.
const appendBudget = 500 * time.Microsecond

// appendWithin appends one row through AppendContext with an appendBudget
// deadline and reports whether it was accepted. A row with room right away
// takes TryAppend, which is the same room check without the deadline's
// timer.
func appendWithin(eng *acache.ShardedEngine, rel string, a, b int64) bool {
	if eng.TryAppend(rel, a, b) {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), appendBudget)
	defer cancel()
	return eng.AppendContext(ctx, rel, a, b) == nil
}

// JSON renders the report for BENCH_overload.json.
func (r *OverloadReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Experiment renders the report in the package's common table/chart form:
// one x position per load level, throughput and shed rate with the ladder
// off and on.
func (r *OverloadReport) Experiment() *bench.Experiment {
	var x, tputOff, tputOn, shedOff, shedOn []float64
	seen := map[string]int{}
	for _, pt := range r.Points {
		idx, ok := seen[pt.Load]
		if !ok {
			idx = len(seen)
			seen[pt.Load] = idx
			x = append(x, float64(idx))
		}
		if pt.Ladder {
			tputOn = append(tputOn, pt.AppendsPerSec)
			shedOn = append(shedOn, pt.ShedRate)
		} else {
			tputOff = append(tputOff, pt.AppendsPerSec)
			shedOff = append(shedOff, pt.ShedRate)
		}
	}
	notes := []string{
		fmt.Sprintf("n=%d relations, W=%d, P=%d, GOMAXPROCS=%d (wall-clock measurement)",
			r.Relations, r.Window, r.Shards, r.GOMAXPROCS),
		"x axis: load level index (baseline, mild, heavy — injected worker slowdown)",
	}
	return &bench.Experiment{
		ID:     "overload",
		Title:  "Overload: throughput & shed rate, ladder off vs on",
		XLabel: "load level",
		YLabel: "appends/sec (wall)",
		Series: []bench.Series{
			{Label: "tuples/sec (no ladder)", X: x, Y: tputOff},
			{Label: "tuples/sec (cache-first ladder)", X: x, Y: tputOn},
			{Label: "shed rate (no ladder)", X: x, Y: shedOff},
			{Label: "shed rate (cache-first ladder)", X: x, Y: shedOn},
		},
		Notes: notes,
	}
}
