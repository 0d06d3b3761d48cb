package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"acache"
	"acache/internal/oracle"
	"acache/internal/stream"
)

// smokeScale shrinks op counts (not queries or windows) for the tests.
const smokeScale = 100

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads() {
		a := streamHash(w.generate(42, 30_000))
		if b := streamHash(w.generate(42, 30_000)); a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", w.name, a, b)
		}
		if b := streamHash(w.generate(43, 30_000)); a == b {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
		long := w.generate(42, 40_000)
		if b := streamHash(long[:30_000]); a != b {
			t.Errorf("%s: a longer stream does not extend a shorter one", w.name)
		}
	}
}

// The program must see generated inputs only: no workload name, no raw seed.
func TestSeedHygiene(t *testing.T) {
	const seed = 987654321
	for _, w := range workloads() {
		visible := fmt.Sprintf("%v %+v %v", w.names(), w.options(seed), w.joins)
		cfg, err := w.coreConfig(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		visible += fmt.Sprintf(" %d", cfg.Seed)
		if strings.Contains(visible, w.name) || strings.Contains(visible, fmt.Sprint(seed)) {
			t.Errorf("%s: workload name or seed value reaches the engine: %s", w.name, visible)
		}
		if w.options(seed).Seed == w.options(seed+1).Seed {
			t.Errorf("%s: Options.Seed does not depend on -seed", w.name)
		}
	}
}

// scaled shrinks a workload's op counts (never its query or windows) for the
// smoke tests; factor 1 returns it unchanged.
func (w workload) scaled(factor int) workload {
	if factor <= 1 {
		return w
	}
	w.warmup /= factor
	w.measure /= factor
	w.latency /= factor
	w.ladder /= factor
	w.ladderWarm /= factor
	w.logged /= factor
	if w.phases != nil {
		p := *w.phases
		p.length /= factor
		w.phases = &p
	}
	if w.syncGap > 0 {
		w.syncGap = max(w.syncGap/factor, 100)
	}
	return w
}

// shrunk returns w with every window and every value domain set to the
// given size, so that the brute-force oracle can follow it and the joins
// still produce results.
func (w workload) shrunk(window int) workload {
	rels := append([]relSpec(nil), w.rels...)
	streams := append([]streamSpec(nil), w.streams...)
	for i := range rels {
		streams[i].domain = int64(window)
		rels[i].window = window
	}
	w.rels, w.streams = rels, streams
	return w
}

// foldEngine replays ops through an engine built with opts and folds the
// result deltas of everything after the first skip appends.
func foldEngine(t *testing.T, w workload, opts acache.Options, ops []op, skip int) sink {
	t.Helper()
	e, err := w.query().Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var out sink
	e.OnResult(out.add)
	names := w.names()
	for i := range ops {
		if i == skip {
			out = sink{}
		}
		e.Append(names[ops[i].idx], ops[i].vals[:ops[i].n]...)
	}
	return out
}

// TestOracle replays a prefix of every workload, shrunk to 50-tuple windows,
// against the brute-force oracle: the adaptive engine's folded deltas must
// equal the oracle's. The shrunk shard workload also goes through
// BuildSharded and AppendBatch.
func TestOracle(t *testing.T) {
	const appends = 3_000
	for _, w := range workloads() {
		w := w.shrunk(50)
		ops := w.generate(42, appends)
		q, err := w.internalQuery()
		if err != nil {
			t.Fatal(err)
		}
		or := oracle.New(q)
		src := newUpdateSource(workload{rels: w.rels})
		var want sink
		for _, u := range src.fill(ops) {
			for _, row := range or.Process(u) {
				want.add(u.Op == stream.Insert, row)
			}
		}
		if want.count == 0 {
			t.Errorf("%s: shrunk workload produces no results; the oracle check is vacuous", w.name)
		}
		if got := foldEngine(t, w, w.options(42), ops, 0); got != want {
			t.Errorf("%s: engine folded %d deltas to %x, oracle %d to %x", w.name, got.count, got.sum, want.count, want.sum)
		}
		if w.kind != shardedEngine {
			continue
		}
		e, err := w.query().BuildSharded(w.options(42), acache.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var got sink
		e.OnResult(got.add)
		for _, b := range w.batches(ops) {
			e.AppendBatch(b.rel, b.rows)
		}
		e.Flush()
		e.Close()
		if got != want {
			t.Errorf("%s: sharded engine folded %d deltas to %x, oracle %d to %x", w.name, got.count, got.sum, want.count, want.sum)
		}
	}
}

// golden pins, for seed 42, the op-stream hash of a prefix of each full-size
// workload — 20 000 appends, or six windows' worth where that is more — and
// the folded result deltas of its second half. A generator change or a result
// change on a later commit — not just a disagreement inside one run — fails
// here.
var golden = map[string]struct {
	stream uint64
	out    sink
}{
	"star3_scan":       {0xa5236d6dcb449971, sink{28748, 0xbf5c8fee5f925f6b}},
	"star3_scan_churn": {0xa74ea0d37de51357, sink{21780, 0x769107cde2733f62}},
	"star3_hit":        {0xa5236d6dcb449971, sink{28748, 0xbf5c8fee5f925f6b}},
	"nway5_mjoin":      {0x17085cd46f197156, sink{6000, 0xb4fe0257ac13cae8}},
	"nway7_drift":      {0x7725d846f122ff0b, sink{784, 0x0}}, // rows are (v,…,v): inserts and retractions of one v cancel
	"shard2_batch":     {0xd88c3abea2cf3075, sink{2250, 0x0}},
	"durable_wal":      {0xa5236d6dcb449971, sink{28748, 0xbf5c8fee5f925f6b}},
}

func TestGoldenChecksums(t *testing.T) {
	for _, w := range workloads() {
		appends := max(20_000, 6*w.rels[0].window)
		skip := appends / 2
		ops := w.generate(42, appends)
		got := foldEngine(t, w, w.options(42), ops, skip)
		if ref := foldEngine(t, w, acache.Options{DisableCaching: true}, ops, skip); got != ref {
			t.Errorf("%s: workload config folds to %+v, indexed MJoin reference to %+v", w.name, got, ref)
		}
		want, ok := golden[w.name]
		if !ok || want.stream != streamHash(ops) || want.out != got {
			t.Errorf("%s: golden mismatch; measured\n\t%q: {0x%x, sink{%d, 0x%x}},", w.name, w.name, streamHash(ops), got.count, got.sum)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest holds the metric and workload tables to the benchmark
// contract and BENCHMARK.json to the tables.
func TestManifest(t *testing.T) {
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a contract name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	maxBound, setup := 0.0, false
	for _, d := range m.EndToEnd {
		check("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %s: bad unit %q or direction %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && d.Bound != maxBound {
			t.Errorf("setup_s has bound %v; the largest is %v", d.Bound, maxBound)
		}
	}
	for _, d := range m.PerLayer {
		check("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: bad unit %q or direction %q", d.Name, d.Unit, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	for _, w := range workloads() {
		if beyond := float64(w.latency) * (1 - 0.9999); beyond < 10 {
			t.Errorf("%s: %d latency requests leave %.0f samples beyond p99.99, want at least 10", w.name, w.latency, beyond)
		}
	}

	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v (regenerate with `go run . -manifest > ../BENCHMARK.json`)", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from the tables in this package; regenerate with `go run . -manifest > ../BENCHMARK.json`")
	}
}

// leakCheck snapshots goroutines and open files and returns a function that
// fails the test if either count has grown.
func leakCheck(t *testing.T) func() {
	t.Helper()
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // not Linux: only goroutines are checked
		}
		return len(ents)
	}
	g0, f0 := runtime.NumGoroutine(), fds()
	return func() {
		t.Helper()
		var g1, f1 int
		for i := 0; i < 100; i++ { // goroutines need a moment to unwind after Close
			if g1, f1 = runtime.NumGoroutine(), fds(); g1 <= g0 && f1 <= f0 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leak: goroutines %d -> %d, open files %d -> %d", g0, g1, f0, f1)
	}
}

// TestSmoke runs every workload once end to end and once traced at tiny op
// counts and checks the shape of what comes out.
func TestSmoke(t *testing.T) {
	for _, full := range workloads() {
		w := full.scaled(smokeScale)
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			leaked := leakCheck(t)

			res, err := runEndToEnd(w, 42, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("end-to-end: correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			var line bytes.Buffer
			if err := printDriverLine(&line, res.Correct, res.Attempted, res.Failed, unitsOf(endToEnd), res.Metrics); err != nil {
				t.Fatal(err)
			}
			checkDriverLine(t, line.Bytes(), endToEnd, true)

			lay, err := runLayers(w, 42, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !lay.Correct || lay.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d problems=%v", lay.Correct, lay.Failed, lay.Problems)
			}
			line.Reset()
			if err := printDriverLine(&line, lay.Correct, lay.Attempted, lay.Failed, unitsOf(perLayer), lay.Metrics); err != nil {
				t.Fatal(err)
			}
			checkDriverLine(t, line.Bytes(), perLayer, false)
			checkTraceFile(t, lay.TraceFile)

			leaked()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				if ent.IsDir() {
					t.Errorf("scratch directory %s was left behind", ent.Name())
				}
			}
		})
	}
}

func checkDriverLine(t *testing.T, line []byte, defs []metricDef, positive bool) {
	t.Helper()
	var got driverLine
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("driver line does not parse: %v\n%s", err, line)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("driver line has %d metrics, want %d", len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := got.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", d.Name, v.Value)
		case positive && v.Value <= 0:
			t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, v.Value)
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("trace file has no spans")
	}
	stats, err := analyze(tf.Spans, 0) // parents valid, children inside parents
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range stats {
		if st.self < 0 {
			t.Errorf("span %s has negative self time", name)
		}
	}
	for _, name := range []string{spanAppend, spanWindow, spanProcess} {
		if stats[name] == nil {
			t.Errorf("trace has no %s span", name)
		}
	}
	byID := map[int32]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.Parent >= 0 && byID[s.Parent].Request != s.Request {
			t.Errorf("span %d belongs to request %d, its parent to %d", s.ID, s.Request, byID[s.Parent].Request)
		}
	}
}

// TestGate checks the stopping rule that rides on earlier runs: no reference
// means no extension, a reading well above the earlier runs' lower quartile
// is not settled, extensions are capped per run and per checkout, and the
// state survives between runs.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	g := openGate(dir, "w")
	if !g.settled(composites{900, 900}) {
		t.Error("first run of a checkout: nothing to compare with, must be settled")
	}
	if got := g.allowance(24); got != 48 {
		t.Errorf("allowance(24) = %v, want 48", got)
	}
	for _, ns := range []float64{500, 510, 490, 800} { // three clean runs and one caught in a spell
		g := openGate(dir, "w")
		if err := g.close(composites{ns, 2 * ns}, 100); err != nil {
			t.Fatal(err)
		}
	}
	g = openGate(dir, "w")
	if g.ref != (composites{500, 1000}) {
		t.Errorf("reference %+v, want the lower quartile {500 1000}", g.ref)
	}
	if !g.settled(composites{540, 1080}) || g.settled(composites{560, 1000}) || g.settled(composites{500, 1120}) {
		t.Errorf("settled must hold within %v of the reference in both readings and not beyond", gateSlack)
	}
	if got := g.allowance(24); got != 48 {
		t.Errorf("allowance(24) with %v s booked = %v, want 48", g.state.ExtendedBy, got)
	}
	if err := g.close(composites{500, 1000}, extensionBudget-400-10); err != nil {
		t.Fatal(err)
	}
	if got := openGate(dir, "w").allowance(24); got != 10 {
		t.Errorf("allowance with 10 s of the budget left = %v, want 10", got)
	}
	if other := openGate(dir, "other"); !other.settled(composites{9e9, 9e9}) {
		t.Error("a workload without runs of its own must have no reference")
	}

	// A state file written by another build is dropped.
	b, err := os.ReadFile(filepath.Join(dir, "gate.json"))
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Replace(b, []byte(g.state.Binary), []byte("another-build"), 1)
	if err := os.WriteFile(filepath.Join(dir, "gate.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if g := openGate(dir, "w"); len(g.state.Runs) != 0 || g.state.ExtendedBy != 0 {
		t.Errorf("state of another build was kept: %+v", g.state)
	}
}

func TestPercentile(t *testing.T) {
	ties := make([]int64, 1000)
	for i := range ties {
		ties[i] = 400 + int64(i/250) // 250 each of 400, 401, 402, 403
	}
	if got := percentile(ties, 0.5); got < 400.5 || got > 401.5 {
		t.Errorf("median of tied readings 400..403 = %v, want within [400.5, 401.5]", got)
	}
	ramp := make([]int64, 100_000)
	for i := range ramp {
		ramp[i] = int64(i)
	}
	if got := percentile(ramp, 0.9999); math.Abs(got-99_989) > 1 {
		t.Errorf("p99.99 of 0..99999 = %v, want 99989", got)
	}
}

// TestSurface checks that surface.go names every package-level symbol of the
// program that the benchmark's other files select.
func TestSurface(t *testing.T) {
	if len(surface) == 0 || len(statsFields(acache.Stats{})) == 0 {
		t.Fatal("surface is empty")
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := os.ReadFile("surface.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range pkgs["main"].Files {
		program := map[string]bool{} // local names of imported program packages
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "acache" || strings.HasPrefix(path, "acache/") {
				program[path[strings.LastIndex(path, "/")+1:]] = true
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && program[pkg.Name] && pkg.Obj == nil {
				if ref := pkg.Name + "." + sel.Sel.Name; !bytes.Contains(listed, []byte(ref)) {
					t.Errorf("%s uses %s, which surface.go does not list", fset.Position(sel.Pos()), ref)
				}
			}
			return true
		})
	}
}
