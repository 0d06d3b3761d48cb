package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The host's slow spells (README, "Estimators") can outlast a run, and a run
// that falls wholly inside one has no clean rep to take its minima from. The
// gate lets such a run go on until the host has shown its full speed: it
// keeps, in a file in the output directory, the composites of every finished
// run of this build in this checkout, and a run whose own composites read
// more than gateSlack above their lower quartile continues past -seconds
// until they no longer do. Extensions are capped per run (twice -seconds)
// and per checkout (extensionBudget), so the driver's time limit for all
// runs holds however bad the host is.
//
// The gate changes only when a run stops. More reps can only lower a minimum
// towards the uncontended cost, never below it, so a run cannot be extended
// into reading better than the program is.
const (
	// gateSlack: sets of runs minutes apart differ by up to 10% on a quiet
	// host and seeds by 2-4%; a slow spell costs 25-70%.
	gateSlack = 1.10
	// extensionBudget: with four listed workloads at 24 s a checkout's 88
	// runs take about 2 200 s of the contract's 3 420 s before extensions.
	extensionBudget = 600.0
)

// composites are the two minimum-filtered readings of a run the gate looks
// at: time per append of the throughput reps and mean best time per request
// of the latency reps.
type composites struct {
	ThroughputNs float64 `json:"throughput_ns"`
	LatencyNs    float64 `json:"latency_ns"`
}

type gateState struct {
	// Binary identifies the build: a rebuilt program starts afresh, because
	// a slower engine would be held against the old one's pace.
	Binary     string                  `json:"binary"`
	Runs       map[string][]composites `json:"runs"`       // by workload
	ExtendedBy float64                 `json:"extended_s"` // over all runs so far
}

type gate struct {
	path     string
	workload string
	state    gateState
	ref      composites // lower quartiles of the earlier runs; zero without any
}

func binaryID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// openGate reads the state file of dir; a missing, unreadable or foreign file
// is an empty state.
func openGate(dir, workload string) *gate {
	g := &gate{path: filepath.Join(dir, "gate.json"), workload: workload}
	id := binaryID()
	if b, err := os.ReadFile(g.path); err == nil {
		if json.Unmarshal(b, &g.state) != nil || g.state.Binary != id {
			g.state = gateState{}
		}
	}
	g.state.Binary = id
	if g.state.Runs == nil {
		g.state.Runs = map[string][]composites{}
	}
	if runs := g.state.Runs[workload]; len(runs) > 0 {
		// The lower quartile: what the host allows when it is not in a
		// spell, without chasing the one luckiest run.
		quartile := func(of func(composites) float64) float64 {
			v := make([]float64, len(runs))
			for i, r := range runs {
				v[i] = of(r)
			}
			sort.Float64s(v)
			return v[len(v)/4]
		}
		g.ref.ThroughputNs = quartile(func(c composites) float64 { return c.ThroughputNs })
		g.ref.LatencyNs = quartile(func(c composites) float64 { return c.LatencyNs })
	}
	return g
}

// settled says the run reads about as well as this checkout's better runs.
func (g *gate) settled(now composites) bool {
	if g.ref == (composites{}) {
		return true
	}
	return now.ThroughputNs <= gateSlack*g.ref.ThroughputNs && now.LatencyNs <= gateSlack*g.ref.LatencyNs
}

// allowance is the longest this run may go on past -seconds.
func (g *gate) allowance(seconds float64) float64 {
	return max(min(2*seconds, extensionBudget-g.state.ExtendedBy), 0)
}

// close books the finished run and writes the state back.
func (g *gate) close(final composites, extended float64) error {
	g.state.Runs[g.workload] = append(g.state.Runs[g.workload], final)
	g.state.ExtendedBy += extended
	b, err := json.MarshalIndent(g.state, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(b, '\n'), 0o644)
}
