// Command acache-bench regenerates the paper's experimental evaluation
// (Section 7): every figure's series is recomputed on the deterministic
// cost model and printed as an aligned table.
//
// Usage:
//
//	acache-bench [-experiment all|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|sharding|hotpath|adaptivity|batch|filter|overload|tiering|recovery|multiquery]
//	             [-scale quick|medium|full] [-seed N] [-shards 1,2,4,8] [-batch N]
//	             [-procs 1,2,4]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// The full scale matches the paper's horizons and takes a few minutes; quick
// is suitable for smoke runs.
//
// Several experiments are wall-clock (not cost-model) based: sharding
// measures append throughput of the hash-partitioned engine at each
// (GOMAXPROCS, shard count) pair of -procs × -shards (with -batch setting
// the ingress batch size; -procs values above the host's CPU count are
// skipped) and writes BENCH_sharding.json; hotpath measures the warm
// per-update ns/op, B/op, and allocs/op of the n-way insert path
// (n = 3, 5, 7) and writes BENCH_hotpath.json; adaptivity measures the
// per-update cost of being adaptive — plain MJoin vs the adaptive engine —
// plus the re-optimizer's amortized wall clock, runs the decision-identity
// differential against the reference implementation, and writes
// BENCH_adaptivity.json; batch measures the vectorized ProcessBatch path against
// the per-update loop at batch sizes 1, 8, 64, 256 and writes
// BENCH_batch.json; filter measures the fingerprint-filtered probe path
// against unfiltered execution on miss-heavy and hit-heavy workloads and
// writes BENCH_filter.json; overload measures throughput and shed rate under
// injected worker slowdowns, with and without the cache-first degradation
// ladder, and writes BENCH_overload.json; tiering measures the mmap-backed
// cold tier's resident-footprint reduction and hot-path overhead against the
// in-memory engine and writes BENCH_tiering.json; recovery measures the
// durability lifecycle — WAL overhead on ingest, checkpoint save time, and
// the wall clock of replay and warm restarts — and writes
// BENCH_recovery.json. The JSON files record GOMAXPROCS/NumCPU, since
// wall-clock numbers do not transfer across hosts.
//
// -cpuprofile and -memprofile write pprof profiles of whatever experiments
// run, for digging into the hot path itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"acache/internal/bench"
	"acache/internal/bench/multiquery"
	"acache/internal/bench/overload"
	"acache/internal/bench/recovery"
	"acache/internal/plot"
	"acache/internal/shard"
)

// writeSVG renders one experiment as an SVG chart file named after its id.
func writeSVG(dir string, e *bench.Experiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c := &plot.Chart{Title: e.ID + " — " + e.Title, XLabel: e.XLabel, YLabel: e.YLabel}
	for _, s := range e.Series {
		c.Series = append(c.Series, plot.Series{Label: s.Label, X: s.X, Y: s.Y})
	}
	return os.WriteFile(filepath.Join(dir, e.ID+".svg"), []byte(c.SVG()), 0o644)
}

// parseCounts parses a comma-separated positive-integer list flag, e.g.
// "1,2,4,8" for -shards or -procs.
func parseCounts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s value %q (want positive integers, e.g. 1,2,4,8)", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	experiment := flag.String("experiment", "all", "experiment id (fig6..fig13), 'ablations', 'extensions', 'sharding', or 'all'")
	shards := flag.String("shards", "1,2,4,8", "comma-separated shard counts for the sharding experiment")
	procs := flag.String("procs", "1,2,4", "comma-separated GOMAXPROCS sweep for the sharding experiment (points above NumCPU are skipped)")
	batch := flag.Int("batch", 0, "sharding experiment ingress batch size (0 = default)")
	scale := flag.String("scale", "medium", "run scale: quick, medium, or full")
	seed := flag.Int64("seed", 42, "workload seed")
	parallel := flag.Bool("parallel", false, "run experiments concurrently (each is self-contained); output stays in order")
	format := flag.String("format", "table", "output format: table or csv")
	svgDir := flag.String("svg", "", "also write one SVG chart per experiment into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	render := func(e *bench.Experiment) string {
		if *svgDir != "" {
			if err := writeSVG(*svgDir, e); err != nil {
				fmt.Fprintln(os.Stderr, "svg:", err)
			}
		}
		if *format == "csv" {
			return "# " + e.ID + " — " + e.Title + "\n" + e.CSV()
		}
		return e.Table()
	}

	var cfg bench.RunConfig
	switch *scale {
	case "quick":
		cfg = bench.Quick()
	case "medium":
		cfg = bench.RunConfig{Warmup: 10_000, Measure: 25_000}
	case "full":
		cfg = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed

	runners := map[string]func(bench.RunConfig) *bench.Experiment{
		"fig6": bench.Fig6, "fig7": bench.Fig7, "fig8": bench.Fig8,
		"fig9": bench.Fig9, "fig10": bench.Fig10, "fig11": bench.Fig11,
		"fig12": bench.Fig12, "fig13": bench.Fig13,
	}
	order := []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}

	switch *experiment {
	case "all":
		if *parallel {
			tables := make([]string, len(order))
			var wg sync.WaitGroup
			for i, id := range order {
				wg.Add(1)
				go func(i string, slot *string) {
					defer wg.Done()
					*slot = render(runners[i](cfg))
				}(id, &tables[i])
			}
			wg.Wait()
			for _, t := range tables {
				fmt.Println(t)
			}
			return
		}
		for _, id := range order {
			fmt.Println(render(runners[id](cfg)))
		}
	case "sharding":
		counts, err := parseCounts("-shards", *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		procList, err := parseCounts("-procs", *procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep := bench.RunSharding(6, counts, procList, shard.Options{BatchSize: *batch}, cfg)
		if err := os.WriteFile("BENCH_sharding.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_sharding.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_sharding.json")
	case "batch":
		rep := bench.RunBatch(4, []int{1, 8, 64, 256}, cfg)
		if err := os.WriteFile("BENCH_batch.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_batch.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_batch.json")
	case "filter":
		rep := bench.RunFilter(cfg)
		if err := os.WriteFile("BENCH_filter.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_filter.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_filter.json")
	case "hotpath":
		rep := bench.RunHotpath([]int{3, 5, 7}, cfg)
		if err := os.WriteFile("BENCH_hotpath.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_hotpath.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_hotpath.json")
	case "adaptivity":
		rep := bench.RunAdaptivity([]int{3, 5}, cfg)
		if err := os.WriteFile("BENCH_adaptivity.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_adaptivity.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_adaptivity.json")
	case "overload":
		rep := overload.Run(cfg)
		if err := os.WriteFile("BENCH_overload.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_overload.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_overload.json")
	case "tiering":
		rep := bench.RunTiering(3, cfg)
		if err := os.WriteFile("BENCH_tiering.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_tiering.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_tiering.json")
	case "recovery":
		rep := recovery.Run(cfg)
		if err := os.WriteFile("BENCH_recovery.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_recovery.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_recovery.json")
	case "multiquery":
		rep := multiquery.Run(4, cfg)
		if err := os.WriteFile("BENCH_multiquery.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_multiquery.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_multiquery.json")
	case "ablations":
		for _, e := range bench.Ablations(cfg) {
			fmt.Println(render(e))
		}
	case "extensions":
		for _, e := range bench.Extensions(cfg) {
			fmt.Println(render(e))
		}
	default:
		run, ok := runners[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s, ablations, extensions, sharding, hotpath, adaptivity, batch, filter, overload, tiering, recovery, multiquery, or all)\n",
				*experiment, strings.Join(order, "|"))
			os.Exit(2)
		}
		fmt.Println(render(run(cfg)))
	}
}
