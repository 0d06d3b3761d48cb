package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the engine sees. Every timed metric carries
// the widest bound the contract allows: on the build host a slow spell of ten
// minutes moves any of them by 10–40% (README, "Estimators" and "Baseline").
var endToEnd = []metricDef{
	{"throughput_tps", "1/s", "higher", 0.25},
	{"latency_p50_ns", "ns", "lower", 0.25},
	{"latency_p99_ns", "ns", "lower", 0.25},
	{"latency_p999_ns", "ns", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.25},
	{"allocs_per_append", "count", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// manifest is BENCHMARK.json, generated from the tables in this package by
// `-manifest` so the two cannot drift apart.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measuring time of one run: long enough that every
// segment and request gets a rep outside the host's shorter slow spells
// (README, "Estimators", "Run length"). The contract's time limit for all
// runs then leaves room for four listed workloads and the gate's extensions.
const runSeconds = 24

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		if w.listed {
			m.Workloads = append(m.Workloads, nameWhy{w.name, w.why})
		}
	}
	return m
}

// host stamps every JSON output with where and on what it was measured.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname"`
}

func stampHost() host {
	h := host{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	h.Hostname, _ = os.Hostname() // a stamp, not an input: empty is fine
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// driverLine is the one JSON object the benchmark contract wants as the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, correct bool, attempted, failed int, units map[string]string, values map[string]float64) error {
	line := driverLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		line.Metrics[name] = metricValue{v, unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func unitsOf(defs []metricDef) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// printTable writes metrics by name with unit, one row per metric and one
// column per workload.
func printTable(w io.Writer, title string, defs []metricDef, cols []string, values []map[string]float64) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-36s %-8s", "metric", "unit")
	for _, c := range cols {
		fmt.Fprintf(w, " %16s", c)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %-8s", d.Name, d.Unit)
		for i := range cols {
			fmt.Fprintf(w, " %16s", formatValue(values[i][d.Name]))
		}
		fmt.Fprintln(w)
	}
}

func formatValue(v float64) string {
	switch a := v; {
	case a == 0:
		return "0"
	case a >= 1e6 || a <= -1e6:
		return fmt.Sprintf("%.4g", v)
	case a >= 100 || a <= -100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
