package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"acache/internal/core"
	"acache/internal/fault"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tier"
	"acache/internal/tuple"
)

// checkGoroutines waits for the goroutine count to return to the baseline,
// failing the test if shard workers leak.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countFDs returns the number of open file descriptors (linux only; callers
// skip elsewhere). Spill mappings hold their fd for the mapping's lifetime,
// so a leaked tier shows up here even after the engine is unreachable.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// mkTieredEngine builds per-shard engines with tiered slab storage under
// dir/shard<i>, with a tiny watermark so spills actually populate.
func mkTieredEngine(q *query.Query, dir string) func(int) (*core.Engine, error) {
	return func(i int) (*core.Engine, error) {
		return core.NewEngine(q, nil, core.Config{
			Seed: int64(1 + i),
			Tier: tier.Options{
				Dir:       filepath.Join(dir, fmt.Sprintf("shard%d", i)),
				HotBytes:  4096,
				PageBytes: 4096,
			},
		})
	}
}

// TestCloseReleasesTierFDs: closing a sharded engine whose shards spill to
// mmap-backed cold tiers must unmap the spills, close their descriptors, and
// remove the files — fd-leak assertions beside the goroutine checks.
func TestCloseReleasesTierFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting via /proc/self/fd")
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	fds := countFDs(t)
	q := starQuery(t, 3)
	sharded, err := New(PlanPartitions(q, 4), Options{BatchSize: 8}, mkTieredEngine(q, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i++ {
		sharded.Offer(stream.Update{Op: stream.Insert, Rel: i % 3, Tuple: tuple.Tuple{int64(i % 3000)}, Seq: uint64(i + 1)})
	}
	sharded.Flush()
	if snap := sharded.Snapshot(); snap.TierColdBytes == 0 || snap.TierDemotions == 0 {
		t.Fatalf("tiny watermark produced no cold state: %+v", snap)
	}
	sharded.Close()
	sharded.Close()
	if got := countFDs(t); got > fds {
		t.Fatalf("fd leak: %d open after Close, baseline %d", got, fds)
	}
	spills, err := filepath.Glob(filepath.Join(dir, "shard*", "*.spill"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) != 0 {
		t.Fatalf("Close left spill files behind: %v", spills)
	}
	checkGoroutines(t, base)
}

// TestRecoveryReleasesTierFDs: a panic-recovery rebuild replaces a shard's
// engine with a fresh one over the SAME spill paths. The rebuild must close
// the panicked engine's tier first (unmapping and removing its files) so the
// replacement can recreate them, and nothing — old mapping, old descriptor,
// worker goroutine — may leak across the swap or the final Close.
func TestRecoveryReleasesTierFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting via /proc/self/fd")
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	fds := countFDs(t)
	q := starQuery(t, 3)
	inj := fault.New().PanicAt(1, 50)
	sharded, err := New(PlanPartitions(q, 4), Options{
		BatchSize:       8,
		CheckpointEvery: 16,
		Injector:        inj,
	}, mkTieredEngine(q, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i++ {
		sharded.Offer(stream.Update{Op: stream.Insert, Rel: i % 3, Tuple: tuple.Tuple{int64(i % 3000)}, Seq: uint64(i + 1)})
	}
	sharded.Flush()
	if sharded.Recoveries() != 1 {
		t.Fatalf("Recoveries() = %d, want 1", sharded.Recoveries())
	}
	sharded.Close()
	if got := countFDs(t); got > fds {
		t.Fatalf("fd leak: %d open after recovery+Close, baseline %d", got, fds)
	}
	if spills, _ := filepath.Glob(filepath.Join(dir, "shard*", "*.spill")); len(spills) != 0 {
		t.Fatalf("Close left spill files behind: %v", spills)
	}
	checkGoroutines(t, base)
}
