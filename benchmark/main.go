// Command benchmark is the engine's one wall-clock benchmark: seven named
// workloads driven through the public acache API, seven end-to-end metrics
// per workload, per-layer probes and a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed      = flag.Int64("seed", 42, "seed of every generated input; claims must also hold on a second seed")
		seconds   = flag.Float64("seconds", runSeconds, "measuring time per workload and mode")
		trace     = flag.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced per-layer run")
		out       = flag.String("out", "out", "directory for trace files and durable scratch state")
		selfcheck = flag.Bool("selfcheck", false, "run two end-to-end sets back to back; fail if a metric moves by more than its bound")
		asJSON    = flag.Bool("json", false, "without -workload: print the full report as JSON instead of tables")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from this package's tables and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *printMan {
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(1, err)
		}
		fmt.Printf("%s\n", b)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(1, err)
	}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *out)
	case *name != "":
		err = runDriver(*name, *seed, *seconds, *trace == 1, *out)
	default:
		err = runAll(*seed, *seconds, *out, *asJSON)
	}
	if err != nil {
		fatal(1, err)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

// runDriver is the contract mode: one workload, one mode, diagnostics on
// standard error, the result object as the last line of standard output.
func runDriver(name string, seed int64, seconds float64, traced bool, out string) error {
	w, ok := workloadByName(name)
	if !ok {
		var names []string
		for _, w := range workloads() {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if traced {
		res, err := runLayers(w, seed, seconds, out)
		if err != nil {
			return err
		}
		report(os.Stderr, res.Problems)
		return printDriverLine(os.Stdout, res.Correct, res.Attempted, res.Failed, unitsOf(perLayer), res.Metrics)
	}
	res, err := runEndToEnd(w, seed, seconds, out)
	if err != nil {
		return err
	}
	report(os.Stderr, res.Problems)
	fmt.Fprintf(os.Stderr, "%s seed %d: reps %d+%d, extended %.1f s, %d latency samples, host.rep_spread %.3f, stream %s\n",
		w.name, seed, res.Reps[0], res.Reps[1], res.Extended, res.Samples, res.RepSpread, res.StreamHash)
	return printDriverLine(os.Stdout, res.Correct, res.Attempted, res.Failed, unitsOf(endToEnd), res.Metrics)
}

func report(f *os.File, problems []string) {
	for _, p := range problems {
		fmt.Fprintln(f, "benchmark: problem:", p)
	}
}

// fullReport is what `-json` prints and what the tables are rendered from.
type fullReport struct {
	Host     host      `json:"host"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds_per_run"`
	EndToEnd []*e2e    `json:"end_to_end"`
	PerLayer []*layers `json:"per_layer"`
	// Claim is always null: this benchmark defines a baseline and claims no
	// gain. A change that claims one reports it in its own PR.
	Claim *string `json:"claim"`
}

// runAll prints every end-to-end metric of every workload and every
// per-layer metric by name with unit, and fails on any incorrect result.
func runAll(seed int64, seconds float64, out string, asJSON bool) error {
	rep := fullReport{Host: stampHost(), Seed: seed, Seconds: seconds}
	var names []string
	var bad []string
	for _, w := range workloads() {
		fmt.Fprintf(os.Stderr, "%s: end-to-end run\n", w.name)
		e, err := runEndToEnd(w, seed, seconds, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: traced run\n", w.name)
		l, err := runLayers(w, seed, seconds, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.EndToEnd = append(rep.EndToEnd, e)
		rep.PerLayer = append(rep.PerLayer, l)
		names = append(names, w.name)
		if !e.Correct {
			bad = append(bad, w.name+" (end-to-end): "+strings.Join(e.Problems, "; "))
		}
		if !l.Correct {
			bad = append(bad, w.name+" (traced): "+strings.Join(l.Problems, "; "))
		}
	}
	if asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", b)
	} else {
		h := rep.Host
		fmt.Printf("host %s  commit %s  %s %s/%s  nproc %d  GOMAXPROCS %d  seed %d  %.0f s per run\n",
			h.Hostname, h.Commit, h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, seed, seconds)
		var ev, lv []map[string]float64
		for i := range rep.EndToEnd {
			ev = append(ev, rep.EndToEnd[i].Metrics)
			lv = append(lv, rep.PerLayer[i].Metrics)
		}
		printTable(os.Stdout, "End-to-end metrics (closed loop, one client)", endToEnd, names, ev)
		fmt.Printf("%-45s", "requests attempted / failed")
		for _, e := range rep.EndToEnd {
			fmt.Printf(" %16s", fmt.Sprintf("%d/%d", e.Attempted, e.Failed))
		}
		fmt.Println()
		printTable(os.Stdout, "Per-layer metrics (traced run; 0 = does not apply to the workload)", perLayer, names, lv)
		fmt.Println("\n\"claim\": null")
	}
	if len(bad) > 0 {
		return fmt.Errorf("incorrect results:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// runSelfcheck runs two complete end-to-end sets back to back and fails if
// any metric of any workload is worse in one than in the other by more than
// its bound — the noise floor this host gives the benchmark.
func runSelfcheck(seed int64, seconds float64, out string) error {
	var sets [2][]*e2e
	for i := range sets {
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, "set %d: %s\n", i+1, w.name)
			e, err := runEndToEnd(w, seed, seconds, out)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !e.Correct {
				return fmt.Errorf("%s: %s", w.name, strings.Join(e.Problems, "; "))
			}
			sets[i] = append(sets[i], e)
		}
	}
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s %s\n", "workload", "metric", "set 1", "set 2", "differ", "bound", "host.rep_spread")
	failures := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			diff := math.Abs(x-y) / min(math.Abs(x), math.Abs(y))
			verdict := ""
			if diff > d.Bound {
				verdict = "  FAIL"
				failures++
			}
			fmt.Printf("%-18s %-20s %14s %14s %8.2f%% %6.0f%% %.3f / %.3f%s\n", a.Workload, d.Name,
				formatValue(x), formatValue(y), 100*diff, 100*d.Bound, a.RepSpread, b.RepSpread, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same commit", failures)
	}
	fmt.Println("selfcheck: every end-to-end metric of every workload agrees within its bound")
	return nil
}
