package shard

import (
	"context"
	"flag"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"acache/internal/core"
	"acache/internal/fault"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// chaosSeed adds one extra randomized schedule to TestRandomizedChaos on top
// of its fixed seeds — CI passes a fresh value per run so the sweep keeps
// exploring new fault interleavings (failures reproduce with the same seed).
var chaosSeed = flag.Int64("chaos.seed", 0, "extra TestRandomizedChaos schedule seed (0 = none)")

// resultLog collects delivered results as a multiset, safe for concurrent
// delivery.
type resultLog struct {
	mu   sync.Mutex
	seen map[string]int
	n    int
}

func newResultLog() *resultLog { return &resultLog{seen: make(map[string]int)} }

func (l *resultLog) add(ins bool, vals []tuple.Value) {
	k := "-"
	if ins {
		k = "+"
	}
	l.mu.Lock()
	l.seen[k+string(tuple.Encode(vals))]++
	l.n++
	l.mu.Unlock()
}

func (l *resultLog) equal(o *resultLog) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(l.seen) != len(o.seen) {
		return false
	}
	for k, n := range l.seen {
		if o.seen[k] != n {
			return false
		}
	}
	return true
}

// driveWindowed replays a windowed workload through a serial reference and a
// resilient sharded engine, comparing delivered-result multisets.
func driveWindowed(t *testing.T, shards, appends, window int, opts Options) (serial *core.Engine, sharded *Engine, refLog, gotLog *resultLog) {
	t.Helper()
	q := starQuery(t, 3)
	var err error
	serial, err = core.NewEngine(q, nil, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = New(PlanPartitions(q, shards), opts, mkEngine(q))
	if err != nil {
		t.Fatal(err)
	}
	refLog, gotLog = newResultLog(), newResultLog()
	serial.OnResult(refLog.add)
	sharded.OnResult(gotLog.add)

	rng := rand.New(rand.NewSource(11))
	wins := make([]*stream.SlidingWindow, q.N())
	for i := range wins {
		wins[i] = stream.NewSlidingWindow(window)
	}
	seq := uint64(0)
	for i := 0; i < appends; i++ {
		rel := rng.Intn(q.N())
		vals := tuple.Tuple{rng.Int63n(25)}
		for _, u := range wins[rel].Append(vals) {
			u.Rel = rel
			seq++
			u.Seq = seq
			serial.Process(u)
			sharded.Offer(u)
		}
	}
	sharded.Flush()
	return serial, sharded, refLog, gotLog
}

// checkGoroutines waits for the goroutine count to return to the baseline,
// failing the test if shard workers leak.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countFDs returns the number of open file descriptors, or -1 where
// /proc/self/fd does not exist.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestPanicRecoveryMatchesSerial injects a panic into one of four shards
// mid-stream and asserts the engine keeps serving, recovers the shard from
// its checkpoint, reports the recovery in Health, and converges to exactly
// the serial reference: same output count and same delivered-result multiset
// (exactly-once across the crash).
func TestPanicRecoveryMatchesSerial(t *testing.T) {
	base, fds := runtime.NumGoroutine(), countFDs()
	inj := fault.New().PanicAt(1, 50)
	serial, sharded, refLog, gotLog := driveWindowed(t, 4, 900, 20, Options{
		BatchSize:       16,
		CheckpointEvery: 32,
		Injector:        inj,
	})
	defer sharded.Close()

	if p, _, _, _ := inj.Counts(); p != 1 {
		t.Fatalf("injector fired %d panics, want 1", p)
	}
	if sharded.Recoveries() != 1 {
		t.Fatalf("Recoveries() = %d, want 1", sharded.Recoveries())
	}
	h := sharded.Health()[1]
	if h.Recoveries != 1 {
		t.Fatalf("shard 1 health reports %d recoveries, want 1", h.Recoveries)
	}
	if h.LastError == "" {
		t.Fatal("recovered shard reports no LastError")
	}
	if sharded.Shed() != 0 {
		t.Fatalf("shed %d updates with blocking admission", sharded.Shed())
	}
	if got, want := sharded.Snapshot().Outputs, serial.Snapshot().Outputs; got != want {
		t.Fatalf("outputs: sharded %d, serial %d", got, want)
	}
	if !refLog.equal(gotLog) {
		t.Fatalf("delivered result multisets differ (serial %d, sharded %d deliveries)", refLog.n, gotLog.n)
	}
	if refLog.n == 0 {
		t.Fatal("workload delivered no results; test is vacuous")
	}
	// Post-recovery window contents match the serial reference per relation.
	for rel := 0; rel < 3; rel++ {
		want := serial.Exec().Store(rel).Len()
		got := 0
		for i := 0; i < sharded.NumShards(); i++ {
			got += sharded.Shard(i).Exec().Store(rel).Len()
		}
		if got != want {
			t.Fatalf("relation %d: sharded windows hold %d tuples, serial %d", rel, got, want)
		}
	}
	// Shard 1 runs a rebuilt engine: Close must still stop every worker and
	// leave no descriptor open.
	sharded.Close()
	if got := countFDs(); got > fds {
		t.Fatalf("fd leak: %d open after recovery and Close, baseline %d", got, fds)
	}
	checkGoroutines(t, base)
}

// TestStackedPanicsQuarantine arms more consecutive panics at one update
// than MaxRecoveries allows: the shard must quarantine, the engine must keep
// serving and flushing, and the quarantined shard's input must be counted
// shed.
func TestStackedPanicsQuarantine(t *testing.T) {
	inj := fault.New()
	for i := 0; i < 5; i++ {
		inj.PanicAt(0, 10)
	}
	_, sharded, _, gotLog := driveWindowed(t, 4, 600, 20, Options{
		BatchSize:       8,
		CheckpointEvery: 16,
		MaxRecoveries:   2,
		Injector:        inj,
	})
	defer sharded.Close()

	h := sharded.Health()
	if h[0].State != Quarantined {
		t.Fatalf("shard 0 state = %v, want quarantined", h[0].State)
	}
	if h[0].Recoveries != 2 {
		t.Fatalf("shard 0 recoveries = %d, want 2", h[0].Recoveries)
	}
	if h[0].Shed == 0 {
		t.Fatal("quarantined shard shed nothing")
	}
	for i := 1; i < 4; i++ {
		if h[i].State != Healthy {
			t.Fatalf("shard %d state = %v, want healthy", i, h[i].State)
		}
		if h[i].Shed != 0 {
			t.Fatalf("healthy shard %d shed %d updates", i, h[i].Shed)
		}
	}
	if gotLog.n == 0 {
		t.Fatal("engine stopped serving after quarantine")
	}
	// The flush barrier still works with a quarantined shard.
	sharded.Flush()
}

// TestPanicWithoutRecoveryQuarantines pins what a shard panic does without
// recovery (CheckpointEvery = 0, as in the zero options): the shard is
// quarantined at once, the other shards keep serving and flushing, and the
// loss shows in Health and Shed only — no call returns an error, while the
// delivered results fall short of the serial reference.
func TestPanicWithoutRecoveryQuarantines(t *testing.T) {
	inj := fault.New().PanicAt(1, 50)
	_, sharded, refLog, gotLog := driveWindowed(t, 4, 900, 20, Options{BatchSize: 16, Injector: inj})
	defer sharded.Close()

	h := sharded.Health()
	if h[1].State != Quarantined || h[1].Recoveries != 0 || h[1].LastError == "" {
		t.Fatalf("shard 1 health = %+v, want quarantined with no recovery and its panic as LastError", h[1])
	}
	if h[1].Shed == 0 || sharded.Shed() != h[1].Shed {
		t.Fatalf("shed: shard 1 %d, engine %d; want the quarantined shard's input, and only it", h[1].Shed, sharded.Shed())
	}
	for i := range h {
		if i != 1 && h[i].State != Healthy {
			t.Fatalf("shard %d state = %v, want healthy", i, h[i].State)
		}
	}
	if gotLog.n == 0 || gotLog.n >= refLog.n {
		t.Fatalf("delivered %d results, serial %d: want some, and fewer", gotLog.n, refLog.n)
	}
	if err := sharded.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext after quarantine: %v", err)
	}
}

// TestCallbackPanicIsolation feeds a callback that panics on every third
// result and asserts the workers survive, the panics are counted, and the
// engine's own result count is unaffected — both with direct delivery
// (plain: no recovery, results go straight to the callback) and through the
// result stage that recovery (CheckpointEvery > 0) puts in front of it.
func TestCallbackPanicIsolation(t *testing.T) {
	for _, res := range []bool{false, true} {
		name := "plain"
		opts := Options{BatchSize: 8}
		if res {
			name = "resilient"
			opts.CheckpointEvery = 64
		}
		t.Run(name, func(t *testing.T) {
			q := starQuery(t, 3)
			sharded, err := New(PlanPartitions(q, 4), opts, mkEngine(q))
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			var mu sync.Mutex
			calls := 0
			sharded.OnResult(func(ins bool, vals []tuple.Value) {
				mu.Lock()
				calls++
				n := calls
				mu.Unlock()
				if n%3 == 0 {
					panic("user callback bug")
				}
			})
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				sharded.Offer(stream.Update{
					Op: stream.Insert, Rel: i % 3, Tuple: tuple.Tuple{rng.Int63n(8)}, Seq: uint64(i + 1),
				})
			}
			sharded.Flush()
			out := sharded.Snapshot().Outputs
			if out == 0 {
				t.Fatal("no results; test is vacuous")
			}
			mu.Lock()
			delivered := calls
			mu.Unlock()
			if uint64(delivered) != out {
				t.Fatalf("callback invoked %d times, engine emitted %d", delivered, out)
			}
			if want := uint64(delivered / 3); sharded.CallbackPanics() != want {
				t.Fatalf("CallbackPanics = %d, want %d", sharded.CallbackPanics(), want)
			}
		})
	}
}

// TestResilienceReplayLogBounded guards the cost of switching on a
// resilience feature other than recovery: with only a stall watchdog, or with
// every row offered only after a room check (the TryAppend path), no shard
// keeps a replay log of the stream it has processed, and an appended row
// costs no more allocations than on the zero options.
func TestResilienceReplayLogBounded(t *testing.T) {
	const rows, warm = 100_000, 10_000
	for _, tc := range []struct {
		name      string
		opts      Options
		roomCheck bool
	}{
		{"stall watchdog", Options{StallTimeout: time.Hour}, false},
		{"room checked", Options{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := starQuery(t, 5)
			sharded, err := New(PlanPartitions(q, 2), tc.opts, mkEngine(q))
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			rng := rand.New(rand.NewSource(3))
			vals := make([]tuple.Value, rows)
			for i := range vals {
				vals[i] = rng.Int63n(500)
			}
			wins := make([]*stream.SlidingWindow, q.N())
			for i := range wins {
				wins[i] = stream.NewSlidingWindow(1000)
			}
			var buf []stream.Update
			seq := uint64(0)
			feed := func(lo, hi int) {
				for r := lo; r < hi; r++ {
					if tc.roomCheck && !sharded.Room(2) {
						t.Fatalf("row %d refused with flushed mailboxes", r)
					}
					rel := r % q.N()
					buf = wins[rel].AppendInto(tuple.Tuple(vals[r:r+1:r+1]), buf[:0])
					for _, u := range buf {
						u.Rel = rel
						seq++
						u.Seq = seq
						sharded.Offer(u)
					}
					if (r+1)%256 == 0 {
						sharded.Flush() // keep the mailboxes short of full: nothing is refused
					}
				}
				sharded.Flush()
			}
			feed(0, warm) // windows fill, caches and buffers reach steady state
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			feed(warm, rows)
			runtime.ReadMemStats(&after)
			for i, ws := range sharded.states {
				if n := len(ws.wal); n != 0 {
					t.Errorf("shard %d holds %d updates in its replay log without recovery", i, n)
				}
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(rows-warm)
			t.Logf("%.3f allocations per appended row", per)
			if per > 0.2 {
				t.Errorf("%.2f allocations per appended row, want ≤ 0.2", per)
			}
		})
	}
}

// TestFlushContextTimeoutOnStall stalls a worker, offers updates while the
// room check allows, and asserts FlushContext times out instead of wedging
// and the watchdog flags the shard. The timed-out flush sheds nothing: once
// the stall is released the engine drains clean, every offered update
// processed and held in a window.
func TestFlushContextTimeoutOnStall(t *testing.T) {
	q := starQuery(t, 3)
	inj := fault.New().StallAt(0, 5)
	sharded, err := New(PlanPartitions(q, 2), Options{
		BatchSize:       4,
		CheckpointEvery: 64,
		StallTimeout:    20 * time.Millisecond,
		Injector:        inj,
	}, mkEngine(q))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	// Offer until the stalled shard's mailbox has no slot for the next
	// batch, so Offer never blocks behind the stall and the last partial
	// batch is one the flush cannot hand over.
	offered := 0
	for ; offered < 1000 && sharded.Room(1); offered++ {
		sharded.Offer(stream.Update{
			Op: stream.Insert, Rel: offered % 3, Tuple: tuple.Tuple{int64(offered % 10)}, Seq: uint64(offered + 1),
		})
	}
	if offered == 1000 {
		t.Fatal("the room check never refused behind a stalled shard")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := sharded.FlushContext(ctx); err == nil {
		t.Fatal("FlushContext returned nil while a worker was stalled")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if sharded.Health()[0].State == Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the stalled shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := sharded.Shed(); n != 0 {
		t.Fatalf("a timed-out flush shed %d updates", n)
	}
	inj.Release()
	if err := sharded.FlushContext(context.Background()); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
	if got := sharded.Snapshot().Updates; got != offered {
		t.Fatalf("processed %d updates after release, want %d", got, offered)
	}
	held := 0
	for i := 0; i < sharded.NumShards(); i++ {
		for rel := 0; rel < q.N(); rel++ {
			held += sharded.Shard(i).Exec().Store(rel).Len()
		}
	}
	if held != offered || sharded.Shed() != 0 {
		t.Fatalf("windows hold %d of %d offered inserts, %d shed", held, offered, sharded.Shed())
	}
}

// TestCloseIdempotentAndConcurrent closes engines twice sequentially and
// from several goroutines at once, in both modes.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, res := range []bool{false, true} {
		opts := Options{BatchSize: 8}
		if res {
			opts.CheckpointEvery = 32
		}
		q := starQuery(t, 3)
		sharded, err := New(PlanPartitions(q, 4), opts, mkEngine(q))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			sharded.Offer(stream.Update{
				Op: stream.Insert, Rel: i % 3, Tuple: tuple.Tuple{int64(i % 10)}, Seq: uint64(i + 1),
			})
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sharded.Close()
			}()
		}
		wg.Wait()
		sharded.Close() // and once more after shutdown
		checkGoroutines(t, base)
	}
}

// TestRandomizedChaos replays seeded random fault schedules (panics and
// slowdowns) against the serial reference: with nothing shed the engines
// must agree exactly; with quarantine-induced shedding the sharded engine
// must emit a subset and account for every dropped update.
func TestRandomizedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	seeds := []int64{1, 2, 3, 4}
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	}
	for _, seed := range seeds {
		chaosSweep(t, seed)
	}
}

func chaosSweep(t *testing.T, seed int64) {
	t.Helper()
	inj := fault.RandomSchedule(seed, 4, 800, 6)
	serial, sharded, refLog, gotLog := driveWindowed(t, 4, 900, 20, Options{
		BatchSize:       16,
		CheckpointEvery: 32,
		Injector:        inj,
	})
	defer sharded.Close()
	shed := sharded.Shed()
	if shed == 0 {
		if got, want := sharded.Snapshot().Outputs, serial.Snapshot().Outputs; got != want {
			t.Fatalf("seed %d: outputs %d, serial %d with nothing shed", seed, got, want)
		}
		if !refLog.equal(gotLog) {
			t.Fatalf("seed %d: result multisets differ with nothing shed", seed)
		}
		return
	}
	if got, want := sharded.Snapshot().Outputs, serial.Snapshot().Outputs; got > want {
		t.Fatalf("seed %d: sharded emitted %d results, more than serial's %d", seed, got, want)
	}
	quarantined := false
	for _, h := range sharded.Health() {
		if h.State == Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("seed %d: %d updates shed without a quarantined shard", seed, shed)
	}
}
