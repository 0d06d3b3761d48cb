package multiquery

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"acache"

	"acache/internal/bench"
)

// The multiquery experiment measures server-scope cross-query sharing: k
// identical continuous queries run once on a Server (shared window stores,
// pooled cache accounting) and once as k isolated engines fed the same
// stream. Charge identity means the simulated cost totals must agree exactly
// between the two configurations; the wins show up in wall-clock throughput
// (one physical window apply instead of k) and resident state bytes.

// Side is one measured configuration (shared server or isolated
// engines) of the comparison.
type Side struct {
	WallSeconds  float64 `json:"wall_seconds"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// ResidentBytes is the state footprint after the run: window stores +
	// used caches, counting each shared store once.
	ResidentBytes int `json:"resident_bytes"`
	// Outputs and WorkSeconds aggregate across all queries; both must match
	// the other side exactly (charge identity).
	Outputs     uint64  `json:"outputs"`
	WorkSeconds float64 `json:"work_seconds"`
}

// Report is the full comparison, JSON-ready for
// BENCH_multiquery.json.
type Report struct {
	Queries  int  `json:"queries"`
	Warmup   int  `json:"warmup_appends"`
	Measure  int  `json:"measure_appends"`
	Shared   Side `json:"shared"`
	Isolated Side `json:"isolated"`
	// ThroughputRatio is shared tuples/sec over isolated tuples/sec.
	ThroughputRatio float64 `json:"throughput_ratio"`
	// ResidentBytesRatio is isolated resident bytes over shared resident
	// bytes — how many times more state the unshared configuration holds.
	ResidentBytesRatio float64 `json:"resident_bytes_ratio"`
	// IdentityVerified is true when every query's outputs and simulated
	// work seconds were bit-identical between the two configurations.
	IdentityVerified bool `json:"identity_verified"`
}

func multiQueryDecl(win int) *acache.Query {
	return acache.NewQuery().
		WindowedRelation("R", win, "A").
		WindowedRelation("S", win, "A", "B").
		WindowedRelation("T", win, "B").
		Join("R.A", "S.A").
		Join("S.B", "T.B")
}

type multiAppend struct {
	rel    string
	values []int64
}

func multiQueryStream(total int, seed int64) []multiAppend {
	rng := rand.New(rand.NewSource(seed))
	ups := make([]multiAppend, total)
	for i := range ups {
		a, b := rng.Int63n(192), rng.Int63n(192)
		switch i % 3 {
		case 0:
			ups[i] = multiAppend{"R", []int64{a}}
		case 1:
			ups[i] = multiAppend{"S", []int64{a, b}}
		default:
			ups[i] = multiAppend{"T", []int64{b}}
		}
	}
	return ups
}

// Run runs k identical 3-way queries shared and isolated over the
// same stream and reports throughput, resident bytes, and the identity check.
func Run(k int, cfg bench.RunConfig) *Report {
	const win = 1024
	rep := &Report{Queries: k, Warmup: cfg.Warmup, Measure: cfg.Measure}
	stream := multiQueryStream(cfg.Warmup+cfg.Measure, cfg.Seed)
	opt := func(i int) acache.Options {
		return acache.Options{Seed: cfg.Seed + int64(i)*7919, ReoptInterval: cfg.Measure / 8}
	}

	// Shared side: one server, k registered queries, Server.Append fan-out.
	srv := acache.NewServer(0)
	srv.RebalanceEvery = 0
	var sharedStats []acache.Stats
	for i := 0; i < k; i++ {
		if _, err := srv.Register(fmt.Sprintf("q%d", i), multiQueryDecl(win), opt(i)); err != nil {
			panic(err)
		}
	}
	for _, u := range stream[:cfg.Warmup] {
		srv.Append(u.rel, u.values...)
	}
	start := time.Now()
	for _, u := range stream[cfg.Warmup:] {
		srv.Append(u.rel, u.values...)
	}
	rep.Shared.WallSeconds = time.Since(start).Seconds()
	stats := srv.Stats()
	for i := 0; i < k; i++ {
		st := stats[fmt.Sprintf("q%d", i)]
		sharedStats = append(sharedStats, st)
		rep.Shared.Outputs += st.Outputs
		rep.Shared.WorkSeconds += st.WorkSeconds
		rep.Shared.ResidentBytes += st.WindowBytes + st.CacheMemoryBytes - st.SharedBytesSaved
	}

	// Isolated side: k private engines, the same updates interleaved per
	// update index — the identical processing order Server.Append used.
	engines := make([]*acache.Engine, k)
	for i := range engines {
		e, err := multiQueryDecl(win).Build(opt(i))
		if err != nil {
			panic(err)
		}
		engines[i] = e
	}
	for _, u := range stream[:cfg.Warmup] {
		for _, e := range engines {
			e.Append(u.rel, u.values...)
		}
	}
	start = time.Now()
	for _, u := range stream[cfg.Warmup:] {
		for _, e := range engines {
			e.Append(u.rel, u.values...)
		}
	}
	rep.Isolated.WallSeconds = time.Since(start).Seconds()
	rep.IdentityVerified = true
	for i, e := range engines {
		st := e.Stats()
		rep.Isolated.Outputs += st.Outputs
		rep.Isolated.WorkSeconds += st.WorkSeconds
		rep.Isolated.ResidentBytes += st.WindowBytes + st.CacheMemoryBytes
		if st.Outputs != sharedStats[i].Outputs || st.WorkSeconds != sharedStats[i].WorkSeconds {
			rep.IdentityVerified = false
		}
	}

	appends := float64(cfg.Measure)
	if rep.Shared.WallSeconds > 0 {
		rep.Shared.TuplesPerSec = appends / rep.Shared.WallSeconds
	}
	if rep.Isolated.WallSeconds > 0 {
		rep.Isolated.TuplesPerSec = appends / rep.Isolated.WallSeconds
	}
	if rep.Isolated.TuplesPerSec > 0 {
		rep.ThroughputRatio = rep.Shared.TuplesPerSec / rep.Isolated.TuplesPerSec
	}
	if rep.Shared.ResidentBytes > 0 {
		rep.ResidentBytesRatio = float64(rep.Isolated.ResidentBytes) / float64(rep.Shared.ResidentBytes)
	}
	return rep
}

// JSON renders the report for BENCH_multiquery.json.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Experiment renders the report in the package's common table/chart form.
func (r *Report) Experiment() *bench.Experiment {
	return &bench.Experiment{
		ID:     "multiquery",
		Title:  "Cross-query sharing: shared server vs isolated engines",
		XLabel: "configuration (1=isolated, 2=shared)",
		YLabel: "appends/sec (wall)",
		Series: []bench.Series{
			{Label: "tuples/sec", X: []float64{1, 2},
				Y: []float64{r.Isolated.TuplesPerSec, r.Shared.TuplesPerSec}},
			{Label: "resident KiB", X: []float64{1, 2},
				Y: []float64{float64(r.Isolated.ResidentBytes) / 1024, float64(r.Shared.ResidentBytes) / 1024}},
		},
		Notes: []string{
			fmt.Sprintf("k=%d identical 3-way queries (wall-clock measurement)", r.Queries),
			fmt.Sprintf("throughput ratio %.2fx, resident-bytes ratio %.2fx, identity_verified=%v",
				r.ThroughputRatio, r.ResidentBytesRatio, r.IdentityVerified),
		},
	}
}
