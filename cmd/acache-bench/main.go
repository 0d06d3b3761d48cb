// Command acache-bench regenerates the paper's experimental evaluation
// (Section 7): every figure's series is recomputed on the deterministic
// cost model and printed as an aligned table.
//
// Usage:
//
//	acache-bench [-experiment all|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|ablations|extensions|multiquery|overload]
//	             [-scale quick|medium|full] [-seed N]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// The full scale matches the paper's horizons and takes a few minutes; quick
// is suitable for smoke runs.
//
// Two experiments are wall-clock (not cost-model) based, and cover what the
// repository's wall-clock benchmark (benchmark/, its own module) does not
// measure yet: multiquery measures several queries hosted by one Server with
// cross-query cache sharing against isolated engines and writes
// BENCH_multiquery.json; overload measures throughput and shed rate under
// injected worker slowdowns, with and without the cache-first degradation
// ladder, and writes BENCH_overload.json. The JSON files record
// GOMAXPROCS/NumCPU, since wall-clock numbers do not transfer across hosts.
// Everything else wall-clock — hot path, adaptivity overhead, batching,
// sharding, durability — is a benchmark/ workload (DESIGN.md §17).
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
	"strings"
	"sync"

	"acache/internal/bench"
	"acache/internal/bench/multiquery"
	"acache/internal/bench/overload"
	"acache/internal/plot"
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

func main() {
	experiment := flag.String("experiment", "all", "experiment id (fig6..fig13), 'ablations', 'extensions', 'multiquery', 'overload', or 'all'")
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
	case "overload":
		rep := overload.Run(cfg)
		if err := os.WriteFile("BENCH_overload.json", rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_overload.json:", err)
			os.Exit(1)
		}
		fmt.Println(render(rep.Experiment()))
		fmt.Println("wrote BENCH_overload.json")
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
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s, ablations, extensions, multiquery, overload, or all)\n",
				*experiment, strings.Join(order, "|"))
			os.Exit(2)
		}
		fmt.Println(render(run(cfg)))
	}
}
