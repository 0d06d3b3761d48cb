package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// minReps is the fewest repetitions of each kind (throughput, latency) a
// run makes however short -seconds is.
const minReps = 3

// e2e is the outcome of one end-to-end run of one workload.
type e2e struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	StreamHash string             `json:"stream_hash"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Reps       [2]int             `json:"reps"`       // throughput, latency
	Extended   float64            `json:"extended_s"` // time past -seconds the gate added
	Samples    int                `json:"latency_samples"`
	RepSpread  float64            `json:"host_rep_spread"`
	Metrics    map[string]float64 `json:"metrics"`
	Problems   []string           `json:"problems,omitempty"`
}

// prepare generates the op stream and its reference outcome.
func prepare(w workload, seed int64) (*input, error) {
	s := &input{ops: w.generate(seed, w.prefix()+w.measure)}
	ref, err := computeReference(w, s.ops)
	if err != nil {
		return nil, fmt.Errorf("reference rep: %w", err)
	}
	s.ref = ref
	return s, nil
}

// runEndToEnd measures w for about the given number of seconds: throughput
// and latency reps alternate (fresh engine each) until the time is used and
// each kind has run at least minReps times — and, when the host is in a slow
// spell, for as much longer as the gate allows. Every estimator is a
// minimum-by-position over reps — see README, "Estimators".
func runEndToEnd(w workload, seed int64, seconds float64, scratch string) (*e2e, error) {
	s, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	res := &e2e{Workload: w.name, Seed: seed, StreamHash: fmt.Sprintf("%016x", streamHash(s.ops)), Correct: true}
	problem := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	warm, measured := s.ops[:w.prefix()], &input{ops: s.ops[w.prefix():], ref: s.ref}
	if w.kind == shardedEngine {
		measured.batches = w.batches(measured.ops)
	}

	segs := newSegTimes((w.measure + w.segment() - 1) / w.segment())
	best := make([]int64, w.latency)
	for i := range best {
		best[i] = math.MaxInt64
	}
	var setups, repTotals []float64
	var allocs []float64
	var units []float64
	opts := w.options(seed)

	g := openGate(scratch, w.name)
	allowance := g.allowance(seconds)
	var due time.Time // when the run would have stopped without the gate
	var reading composites

	heap0 := heapAlloc()
	var heap1 uint64
	begin := time.Now()
	for rep := 0; ; rep++ {
		l, err := build(w, opts, warm, scratch)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, l.setup.Seconds())
		var failed, requests int
		var want sink
		if rep%2 == 0 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			failed = l.throughput(measured, segs.cur)
			runtime.ReadMemStats(&m1)
			repTotals = append(repTotals, float64(segs.fold()))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(w.measure))
			requests, want = w.measure, s.ref.atMeasure
			res.Reps[0]++
		} else {
			failed = l.latency(measured, best)
			requests, want = w.latency, s.ref.atLatency
			res.Reps[1]++
		}
		st := l.stats() // flushes a sharded engine before the sink is read
		failed += int(st.Shedded) + int(st.WALErrors)
		if rep%2 == 0 {
			units = append(units, st.WorkSeconds)
		}
		res.Attempted += requests
		res.Failed += failed
		if *l.out != want {
			problem("rep %d: %d deltas checksum %016x, reference %d deltas checksum %016x",
				rep, l.out.count, l.out.sum, want.count, want.sum)
		}
		now := time.Now()
		done := now.Sub(begin).Seconds() >= seconds && res.Reps[0] >= minReps && res.Reps[1] >= minReps
		if done {
			if due.IsZero() {
				due = now
			}
			reading = composites{segs.sum() / float64(w.measure), mean(best)}
			done = g.settled(reading) || now.Sub(due).Seconds() >= allowance
		}
		if done {
			heap1 = heapAlloc()
			res.Extended = now.Sub(due).Seconds()
		}
		l.close()
		if done {
			break
		}
	}
	if err := g.close(reading, res.Extended); err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	if res.Failed > 0 {
		problem("%d of %d requests failed", res.Failed, res.Attempted)
	}
	for _, u := range units[1:] {
		if u != units[0] {
			problem("simulated work differs between reps: %v vs %v", u, units[0])
		}
	}

	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	sort.Float64s(allocs)
	sort.Float64s(repTotals)
	res.Samples = len(best)
	res.RepSpread = repTotals[len(repTotals)-1]/repTotals[0] - 1
	heapMB := (float64(heap1) - float64(heap0)) / (1 << 20)
	res.Metrics = map[string]float64{
		"setup_s":           slices.Min(setups),
		"throughput_tps":    float64(w.measure) / (segs.sum() / 1e9),
		"latency_p50_ns":    percentile(best, 0.50),
		"latency_p99_ns":    percentile(best, 0.99),
		"latency_p999_ns":   percentile(best, 0.999),
		"heap_mb":           heapMB,
		"allocs_per_append": allocs[len(allocs)/2],
	}
	if beyond := float64(len(best)) * (1 - 0.999); beyond < 10 {
		res.Problems = append(res.Problems, fmt.Sprintf("only %.0f samples beyond p99.9", beyond))
	}
	return res, nil
}

// segTimes keeps one contestant's per-segment wall times: the rep under way
// and the minimum of each segment over the reps folded so far.
type segTimes struct {
	cur, best []int64
}

func newSegTimes(n int) *segTimes {
	t := &segTimes{cur: make([]int64, n), best: make([]int64, n)}
	for i := range t.best {
		t.best[i] = math.MaxInt64
	}
	return t
}

// fold merges the current rep into the minima and returns the rep's total.
func (t *segTimes) fold() (total int64) {
	for i, d := range t.cur {
		total += d
		t.best[i] = min(t.best[i], d)
	}
	return total
}

// sum is the composite: every segment at its fastest.
func (t *segTimes) sum() float64 {
	s := int64(0)
	for _, d := range t.best {
		s += d
	}
	return float64(s)
}

func mean(v []int64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// percentile reads quantile p from an ascending sample as the mean over a
// small band of ranks centred on it — half of the samples beyond the rank,
// at most 0.05% of the sample either side — of the de-quantized reading at
// each rank: an integer clock reading v shared by ranks lo..hi stands for
// durations spread evenly over [v-0.5, v+0.5), so rank r reads
// v - 0.5 + (r-lo+0.5)/(hi-lo+1). Without that, a million requests a few
// hundred nanoseconds long put thousands of equal integers around the median.
func percentile(sorted []int64, p float64) float64 {
	n := len(sorted)
	rank := min(int(math.Ceil(p*float64(n)))-1, n-1)
	rank = max(rank, 0)
	half := min((n-1-rank)/2, n/2000)
	first, last := max(rank-half, 0), min(rank+half, n-1)
	sum := 0.0
	for r := first; r <= last; {
		v := sorted[r]
		lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
		hi := sort.Search(n, func(i int) bool { return sorted[i] > v }) - 1
		for ; r <= min(hi, last); r++ {
			sum += float64(v) - 0.5 + (float64(r-lo)+0.5)/float64(hi-lo+1)
		}
	}
	return sum / float64(last-first+1)
}
