package acache

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// durQuery pads every relation to width 4, so checkpoint entries and WAL
// records carry several values per tuple.
func durQuery() *Query {
	return NewQuery().
		WindowedRelation("R", 300, "A", "P1", "P2", "P3").
		WindowedRelation("S", 300, "A", "B", "P1", "P2").
		WindowedRelation("T", 300, "B", "P1", "P2", "P3").
		Join("R.A", "S.A").
		Join("S.B", "T.B")
}

// driveDur streams n pseudo-random appends (seeded rng) into e.
// (resultLog, the ordered delta recorder, lives in server_sharing_test.go.)
func driveDur(e *Engine, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			e.Append("R", rng.Int63n(60), 0, 0, 0)
		case 1:
			e.Append("S", rng.Int63n(60), rng.Int63n(60), 0, 0)
		default:
			e.Append("T", rng.Int63n(60), 0, 0, 0)
		}
	}
}

func durOpts(dir string) Options {
	return Options{
		ReoptInterval: 100,
		Seed:          7,
		Tier:          TierOptions{Dir: dir},
	}
}

// sameDeltas asserts the two delta streams are equal as multisets. Within a
// single update the emission order follows store iteration order, which a
// bulk-restored slab legitimately permutes, so ordered comparison would
// false-alarm; multiset equality over tagged insert/delete rows is the exact
// correctness contract.
func sameDeltas(t *testing.T, got, want *resultLog) {
	t.Helper()
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%d result rows, control has %d", len(got.rows), len(want.rows))
	}
	g := append([]string(nil), got.rows...)
	w := append([]string(nil), want.rows...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("delta multiset mismatch at %d: %s vs %s", i, g[i], w[i])
		}
	}
}

// TestDurableWarmRestartCloseKeep checks the clean-shutdown path: CloseKeep
// leaves a self-contained checkpoint and an emptied WAL and nothing else, and
// the reopened engine continues producing exactly the output stream an
// uninterrupted engine produces.
func TestDurableWarmRestartCloseKeep(t *testing.T) {
	dir := t.TempDir()

	// Control: same query, same options (minus durability), uninterrupted.
	ctrl, err := durQuery().Build(Options{ReoptInterval: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var want resultLog
	want.attach(ctrl)
	crng := rand.New(rand.NewSource(99))
	driveDur(ctrl, crng, 900)

	var got resultLog
	a, warm, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("fresh directory reported a warm start")
	}
	got.attach(a)
	rng := rand.New(rand.NewSource(99))
	driveDur(a, rng, 600)
	if err := a.CloseKeep(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint stands alone: a warm restart needs no file beside it
	// and the WAL.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, ent := range ents {
		files = append(files, ent.Name())
	}
	if want := []string{ckptName, walName}; !slices.Equal(files, want) {
		t.Fatalf("CloseKeep left %v, want exactly %v", files, want)
	}

	b, warm, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("checkpointed directory reported a cold start")
	}
	if n := b.Stats().WALRecordsReplayed; n != 0 {
		t.Fatalf("warm restart after CloseKeep replayed %d records, want 0", n)
	}
	got.attach(b)
	driveDur(b, rng, 300)

	for _, r := range []string{"R", "S", "T"} {
		if g, w := b.WindowLen(r), ctrl.WindowLen(r); g != w {
			t.Fatalf("window %s: %d tuples after restart, control has %d", r, g, w)
		}
	}
	sameDeltas(t, &got, &want)
	b.Close()
	if _, err := os.Stat(filepath.Join(dir, "engine.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("Close kept the checkpoint: %v", err)
	}
}

// TestDurableKillRestartWAL checks crash recovery: a checkpoint plus a
// synced WAL tail reconstruct the engine exactly, even though the engine was
// never shut down cleanly (we abandon it without Close, as a kill would).
func TestDurableKillRestartWAL(t *testing.T) {
	dir := t.TempDir()

	ctrl, err := durQuery().Build(Options{ReoptInterval: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var want resultLog
	want.attach(ctrl)
	crng := rand.New(rand.NewSource(17))
	driveDur(ctrl, crng, 1000)

	var got resultLog
	a, _, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	got.attach(a)
	rng := rand.New(rand.NewSource(17))
	driveDur(a, rng, 400)
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	driveDur(a, rng, 300)
	if err := a.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// Kill: no Close, no CloseKeep. The checkpoint and the synced WAL tail
	// are on disk.

	b, warm, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !warm {
		t.Fatal("checkpoint+WAL directory reported a cold start")
	}
	// Exactly the 300 appends logged after the checkpoint replay, to a clean end.
	if st := b.Stats(); st.WALRecordsReplayed != 300 || st.WALReplayReason != "clean" {
		t.Fatalf("replayed %d records, reason %q; want 300, clean", st.WALRecordsReplayed, st.WALReplayReason)
	}
	got.attach(b)
	driveDur(b, rng, 300)

	for _, r := range []string{"R", "S", "T"} {
		if g, w := b.WindowLen(r), ctrl.WindowLen(r); g != w {
			t.Fatalf("window %s: %d tuples after recovery, control has %d", r, g, w)
		}
	}
	sameDeltas(t, &got, &want)
}

// TestDurableTimeAndPartitionedRestart covers the two other window flavors:
// time-based windows (clock and per-tuple timestamps must survive) and
// partitioned windows (per-partition arrival order must survive).
func TestDurableTimeAndPartitionedRestart(t *testing.T) {
	mk := func() *Query {
		return NewQuery().
			TimeWindowedRelation("R", 50, "A").
			PartitionedRelation("S", "A", 4, "A", "B").
			WindowedRelation("T", 32, "B").
			Join("R.A", "S.A").
			Join("S.B", "T.B")
	}
	drive := func(e *Engine, rng *rand.Rand, from, n int) {
		for i := from; i < from+n; i++ {
			switch rng.Intn(3) {
			case 0:
				e.AppendAt("R", int64(i), rng.Int63n(30))
			case 1:
				e.Append("S", rng.Int63n(8), rng.Int63n(30))
			default:
				e.Append("T", rng.Int63n(30))
			}
		}
	}

	ctrl, err := mk().Build(Options{ReoptInterval: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var want resultLog
	want.attach(ctrl)
	crng := rand.New(rand.NewSource(5))
	drive(ctrl, crng, 0, 500)
	drive(ctrl, crng, 500, 250)

	dir := t.TempDir()
	var got resultLog
	a, _, err := mk().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	got.attach(a)
	rng := rand.New(rand.NewSource(5))
	drive(a, rng, 0, 500)
	if err := a.CloseKeep(); err != nil {
		t.Fatal(err)
	}

	b, warm, err := mk().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !warm {
		t.Fatal("expected warm restart")
	}
	got.attach(b)
	drive(b, rng, 500, 250)

	if g, w := b.WindowLen("R"), ctrl.WindowLen("R"); g != w {
		t.Fatalf("time window: %d tuples, control %d", g, w)
	}
	if g, w := b.WindowLen("S"), ctrl.WindowLen("S"); g != w {
		t.Fatalf("partitioned window: %d tuples, control %d", g, w)
	}
	sameDeltas(t, &got, &want)
}

// TestDurableFDLeak cycles durable engines and asserts the process's open
// file-descriptor count returns to its baseline — the WAL handle and the
// checkpoint temp files must all be released by Close and CloseKeep.
func TestDurableFDLeak(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting via /proc/self/fd")
	}
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	base := countFDs()
	for i := 0; i < 3; i++ {
		e, _, err := durQuery().BuildDurable(durOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		driveDur(e, rng, 400)
		if i%2 == 0 {
			if err := e.CloseKeep(); err != nil {
				t.Fatal(err)
			}
		} else {
			e.Close()
		}
	}
	if got := countFDs(); got > base {
		t.Fatalf("fd leak: %d open after cycles, baseline %d", got, base)
	}
}
