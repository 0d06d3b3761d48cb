package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"acache/internal/core"
	"acache/internal/shard"
)

// The sharding experiment is the one measurement in this package that uses
// wall-clock time instead of the deterministic cost meter: hash-partitioned
// parallelism cuts elapsed time by spreading work across cores, while the
// aggregate simulated work stays the same (shards run the same operators on
// slices of the same stream). Meter units therefore cannot show a speedup —
// only the clock can.

// ShardingPoint is one measured (GOMAXPROCS, shard count) pair of the
// scaling run.
type ShardingPoint struct {
	// GOMAXPROCS is the scheduler parallelism this point ran under; the
	// sweep re-measures every shard count at each value so the JSON
	// separates sharding overhead (visible at GOMAXPROCS=1) from actual
	// multi-core scaling.
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Shards       int     `json:"shards"`
	Partitioning string  `json:"partitioning"`
	WallSeconds  float64 `json:"wall_seconds"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// SpeedupVsSerial is this point's throughput over the P=1 point's at
	// the same GOMAXPROCS.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	Outputs         uint64  `json:"outputs"`
}

// ShardingReport is the full scaling run, JSON-ready for BENCH_sharding.json.
// GOMAXPROCS records the process default before the sweep (each point carries
// the value it actually ran under); NumCPU records the host parallelism the
// run had available: on a single-core host the sweep collapses to the
// GOMAXPROCS=1 group, every point sits at ≈1×, and the numbers measure
// sharding overhead, not scaling.
type ShardingReport struct {
	Relations int `json:"relations"`
	Warmup    int `json:"warmup_appends"`
	Measure   int `json:"measure_appends"`
	// BatchSize is the ingress→mailbox batch size in effect (the mailbox
	// batch is also what each shard's vectorized ProcessBatch digests per
	// call).
	BatchSize  int             `json:"batch_size"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Points     []ShardingPoint `json:"points"`
}

// RunSharding measures wall-clock throughput of the sharded engine on the
// Fig9 n-way workload at each (GOMAXPROCS, shard count) pair, with the given
// mailbox batching options. procs lists the GOMAXPROCS values to sweep
// (values above runtime.NumCPU cannot exercise parallelism the host lacks
// and are skipped; nil means the current setting only). Every run replays
// the identical update stream; the Outputs column cross-checks that
// partitioning did not change the result cardinality.
func RunSharding(n int, shardCounts, procs []int, sopts shard.Options, cfg RunConfig) *ShardingReport {
	batchSize := sopts.BatchSize
	if batchSize <= 0 {
		batchSize = shard.DefaultBatchSize
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rep := &ShardingReport{
		Relations:  n,
		Warmup:     cfg.Warmup,
		Measure:    cfg.Measure,
		BatchSize:  batchSize,
		GOMAXPROCS: prev,
		NumCPU:     runtime.NumCPU(),
	}
	if len(procs) == 0 {
		procs = []int{prev}
	}
	for _, gmp := range procs {
		if gmp > runtime.NumCPU() {
			continue
		}
		runtime.GOMAXPROCS(gmp)
		base := len(rep.Points)
		for _, p := range shardCounts {
			pt := runShardingPoint(n, p, sopts, cfg)
			pt.GOMAXPROCS = gmp
			rep.Points = append(rep.Points, pt)
		}
		for i := base; i < len(rep.Points); i++ {
			if b := rep.Points[base].TuplesPerSec; b > 0 {
				rep.Points[i].SpeedupVsSerial = rep.Points[i].TuplesPerSec / b
			}
		}
	}
	return rep
}

func runShardingPoint(n, shards int, sopts shard.Options, cfg RunConfig) ShardingPoint {
	w := nWayWorkload(n)
	plan := shard.PlanPartitions(w.q, shards)
	sh, err := shard.New(plan, sopts, func(i int) (*core.Engine, error) {
		return core.NewEngine(w.q, nil, core.Config{
			ReoptInterval: cfg.Measure / 8,
			GCQuota:       6,
			// Decorrelate per-shard sampling, as BuildSharded does.
			Seed: cfg.Seed + int64(i)*1_000_003,
		})
	})
	if err != nil {
		panic(err)
	}
	defer sh.Close()
	src := w.source()
	for src.TotalAppends() < uint64(cfg.Warmup) {
		sh.Offer(src.Next())
	}
	sh.Flush()
	startAppends := src.TotalAppends()
	start := time.Now()
	for src.TotalAppends() < startAppends+uint64(cfg.Measure) {
		sh.Offer(src.Next())
	}
	sh.Flush()
	wall := time.Since(start).Seconds()
	pt := ShardingPoint{
		Shards:       plan.Shards,
		Partitioning: plan.String(),
		WallSeconds:  wall,
		Outputs:      sh.Outputs(),
	}
	if wall > 0 {
		pt.TuplesPerSec = float64(cfg.Measure) / wall
	}
	return pt
}

// JSON renders the report for BENCH_sharding.json.
func (r *ShardingReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Experiment renders the report in the package's common table/chart form:
// one tuples/sec + speedup series pair per GOMAXPROCS group.
func (r *ShardingReport) Experiment() *Experiment {
	notes := []string{
		fmt.Sprintf("n=%d relations, NumCPU=%d (wall-clock measurement)",
			r.Relations, r.NumCPU),
	}
	var series []Series
	for i := 0; i < len(r.Points); {
		gmp := r.Points[i].GOMAXPROCS
		var x, tput, speedup []float64
		for ; i < len(r.Points) && r.Points[i].GOMAXPROCS == gmp; i++ {
			x = append(x, float64(r.Points[i].Shards))
			tput = append(tput, r.Points[i].TuplesPerSec)
			speedup = append(speedup, r.Points[i].SpeedupVsSerial)
		}
		series = append(series,
			Series{Label: fmt.Sprintf("tuples/sec @GOMAXPROCS=%d", gmp), X: x, Y: tput},
			Series{Label: fmt.Sprintf("speedup vs P=1 @GOMAXPROCS=%d", gmp), X: x, Y: speedup})
	}
	if len(r.Points) > 0 {
		notes = append(notes, "partitioning: "+r.Points[len(r.Points)-1].Partitioning)
	}
	return &Experiment{
		ID:     "sharding",
		Title:  "Hash-partitioned scaling (wall clock)",
		XLabel: "shards",
		YLabel: "appends/sec (wall)",
		Series: series,
		Notes:  notes,
	}
}
