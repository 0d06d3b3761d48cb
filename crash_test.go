package acache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"acache/internal/fault"
)

// Crash-consistency proofs. The contract under test: for ANY truncation and
// any single-byte corruption of the durable files, BuildDurable either
// restores a state differentially identical to a reference engine fed the
// applied operation prefix, or fails with a clean error — never a panic,
// never a silently wrong state.

// durOp is one scripted ingress call. Unlike driveDur, the script is a value:
// crash trials replay exact prefixes of it into reference engines.
type durOp struct {
	rel  string
	vals []int64
}

// genDurOps mirrors driveDur's distribution as a replayable script.
func genDurOps(seed int64, n int) []durOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]durOp, n)
	for i := range ops {
		switch rng.Intn(3) {
		case 0:
			ops[i] = durOp{"R", []int64{rng.Int63n(60), 0, 0, 0}}
		case 1:
			ops[i] = durOp{"S", []int64{rng.Int63n(60), rng.Int63n(60), 0, 0}}
		default:
			ops[i] = durOp{"T", []int64{rng.Int63n(60), 0, 0, 0}}
		}
	}
	return ops
}

func applyDurOps(e *Engine, ops []durOp) {
	for _, op := range ops {
		e.Append(op.rel, op.vals...)
	}
}

// relContents captures every relation's window state as sorted row multisets
// (plus the clock for time windows) — the differential-identity probe.
func relContents(e *Engine) [][]string {
	out := make([][]string, len(e.windows))
	for i := range e.windows {
		_, clock, ts, stamps := e.relState(i)
		rows := make([]string, 0, len(ts)+1)
		for j, tp := range ts {
			if stamps != nil {
				rows = append(rows, fmt.Sprintf("%v@%d", tp, stamps[j]))
			} else {
				rows = append(rows, fmt.Sprintf("%v", tp))
			}
		}
		sort.Strings(rows)
		out[i] = append(rows, fmt.Sprintf("clock=%d", clock))
	}
	return out
}

// refStates memoizes "reference engine fed ops[:k]" window states across the
// many crash trials that land on the same applied prefix.
type refStates struct {
	t    *testing.T
	ops  []durOp
	memo map[int][][]string
}

func newRefStates(t *testing.T, ops []durOp) *refStates {
	return &refStates{t: t, ops: ops, memo: make(map[int][][]string)}
}

func (r *refStates) at(k int) [][]string {
	if s, ok := r.memo[k]; ok {
		return s
	}
	if k > len(r.ops) {
		r.t.Fatalf("reference prefix %d exceeds script length %d", k, len(r.ops))
	}
	ref, err := durQuery().Build(Options{ReoptInterval: 100, Seed: 7})
	if err != nil {
		r.t.Fatal(err)
	}
	applyDurOps(ref, r.ops[:k])
	s := relContents(ref)
	ref.Close()
	r.memo[k] = s
	return s
}

// copyDurDir clones the flat durable-state directory into a fresh temp dir so
// each crash trial mutates its own copy.
func copyDurDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// makeKillState drives a durable engine through ops with a checkpoint after
// ckptAt of them, syncs the WAL, and abandons the engine without closing — a
// simulated kill. Returns the state directory.
func makeKillState(t *testing.T, ops []durOp, ckptAt int) string {
	t.Helper()
	dir := t.TempDir()
	e, warm, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("fresh directory reported warm")
	}
	applyDurOps(e, ops[:ckptAt])
	if ckptAt > 0 {
		if err := e.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	applyDurOps(e, ops[ckptAt:])
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// rebuild runs BuildDurable on dir and fails the test on error.
func rebuild(t *testing.T, dir string) (*Engine, bool) {
	t.Helper()
	e, warm, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	return e, warm
}

// TestCrashTruncatedWAL proves torn-write recovery: every sampled truncation
// of the synced WAL recovers exactly the operations whose frames survived in
// full — checkpoint ops plus the valid frame prefix — and nothing else.
func TestCrashTruncatedWAL(t *testing.T) {
	const ckptAt, total = 200, 320
	ops := genDurOps(21, total)
	src := makeKillState(t, ops, ckptAt)
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	refs := newRefStates(t, ops)

	// Cuts: the whole header region, a stride across the body, and every
	// byte of the tail (torn final writes are the common crash shape).
	cuts := map[int]bool{0: true, len(wal): true}
	for c := 0; c <= walHdrBytes+2; c++ {
		cuts[c] = true
	}
	for c := 0; c < len(wal); c += 97 {
		cuts[c] = true
	}
	for c := len(wal) - 120; c < len(wal); c++ {
		cuts[c] = true
	}
	var sorted []int
	for c := range cuts {
		if c >= 0 && c <= len(wal) {
			sorted = append(sorted, c)
		}
	}
	sort.Ints(sorted)

	for _, cut := range sorted {
		dir := copyDurDir(t, src)
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e, warm := rebuild(t, dir)
		st := e.Stats()
		if !warm {
			t.Fatalf("cut %d: checkpointed state reported cold", cut)
		}
		switch st.WALReplayReason {
		case "clean", "torn-tail", "torn-header", "empty":
		default:
			t.Fatalf("cut %d: unexpected replay reason %q", cut, st.WALReplayReason)
		}
		k := ckptAt + int(st.WALRecordsReplayed)
		if got, want := relContents(e), refs.at(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: state diverges from reference at prefix %d\n got %v\nwant %v",
				cut, k, got, want)
		}
		e.Close()
	}
}

// TestCrashCorruptWALByte proves mid-log corruption detection: a flipped bit
// anywhere in the WAL yields either a clean error or a recovery whose state
// is exactly a valid applied prefix — never a panic, never silent garbage.
func TestCrashCorruptWALByte(t *testing.T) {
	const ckptAt, total = 150, 250
	ops := genDurOps(33, total)
	src := makeKillState(t, ops, ckptAt)
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	refs := newRefStates(t, ops)

	offs := map[int]bool{}
	for o := 0; o < len(wal); o += 23 {
		offs[o] = true
	}
	for o := len(wal) - 80; o < len(wal); o++ {
		if o >= 0 {
			offs[o] = true
		}
	}
	var sorted []int
	for o := range offs {
		sorted = append(sorted, o)
	}
	sort.Ints(sorted)

	errors, exact := 0, 0
	for _, off := range sorted {
		dir := copyDurDir(t, src)
		mut := append([]byte(nil), wal...)
		mut[off] ^= 0x10
		if err := os.WriteFile(filepath.Join(dir, walName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e, _, err := durQuery().BuildDurable(durOpts(dir))
		if err != nil {
			errors++
			continue // clean rejection is a correct outcome
		}
		st := e.Stats()
		k := ckptAt + int(st.WALRecordsReplayed)
		if got, want := relContents(e), refs.at(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("flip at %d: recovered state is not the applied prefix %d", off, k)
		}
		exact++
		e.Close()
	}
	// A flip before the last frame must either error (scan-forward finds the
	// later valid frames) or truncate replay; both paths were exercised.
	if errors == 0 || exact == 0 {
		t.Fatalf("corruption sweep degenerate: %d errors, %d exact recoveries", errors, exact)
	}
}

// TestCrashCorruptCheckpoint proves the whole-file checkpoint checksum: any
// single-byte flip and any truncation of engine.ckpt is detected as a clean
// error before any state is touched.
func TestCrashCorruptCheckpoint(t *testing.T) {
	ops := genDurOps(44, 300)
	dir := t.TempDir()
	e, _, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyDurOps(e, ops)
	if err := e.CloseKeep(); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, ckptName)
	ck, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flips: restore the byte after each trial. A trial that wrongly
	// succeeds fails the test immediately, so in-place mutation is safe —
	// parse rejects before Build runs.
	for off := 0; off < len(ck); off += 7 {
		ck[off] ^= 0x04
		if err := os.WriteFile(ckPath, ck, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := durQuery().BuildDurable(durOpts(dir)); err == nil {
			t.Fatalf("flip at %d: corrupted checkpoint accepted", off)
		}
		ck[off] ^= 0x04
	}
	// Truncations.
	for cut := 0; cut < len(ck); cut += 11 {
		if err := os.WriteFile(ckPath, ck[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := durQuery().BuildDurable(durOpts(dir)); err == nil {
			t.Fatalf("truncation at %d: corrupted checkpoint accepted", cut)
		}
	}
	// Restore and prove the pristine file still loads warm.
	if err := os.WriteFile(ckPath, ck, 0o644); err != nil {
		t.Fatal(err)
	}
	b, warm := rebuild(t, dir)
	if !warm {
		t.Fatal("pristine checkpoint reported cold")
	}
	refs := newRefStates(t, ops)
	if got, want := relContents(b), refs.at(len(ops)); !reflect.DeepEqual(got, want) {
		t.Fatal("pristine restore diverges from reference")
	}
	b.Close()
}

// TestCrashBetweenCheckpointAndTruncate is the double-apply regression: a
// crash after the checkpoint rename but before the WAL truncate leaves a
// stale full WAL next to a checkpoint that already contains its effects. The
// epoch stamp must make replay ignore every stale record.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	const total = 260
	ops := genDurOps(66, total)
	dir := t.TempDir()
	e, _, err := durQuery().BuildDurable(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	applyDurOps(e, ops)
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	preWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the pre-checkpoint WAL reappears in full.
	if err := os.WriteFile(walPath, preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	b, warm := rebuild(t, dir)
	st := b.Stats()
	if !warm {
		t.Fatal("restart reported cold")
	}
	if st.WALReplayReason != "stale-epoch" {
		t.Fatalf("replay reason %q, want stale-epoch", st.WALReplayReason)
	}
	if st.WALRecordsReplayed != 0 {
		t.Fatalf("%d stale records replayed; checkpoint effects double-applied", st.WALRecordsReplayed)
	}
	if want := uint64(len(preWAL) - walHdrBytes); st.WALBytesIgnored != want {
		t.Fatalf("WALBytesIgnored = %d, want %d", st.WALBytesIgnored, want)
	}
	refs := newRefStates(t, ops)
	if got, want := relContents(b), refs.at(total); !reflect.DeepEqual(got, want) {
		t.Fatal("state after stale-WAL restart is not exactly-once")
	}
	b.Close()
}

// TestWALSyncFailureSticky: a failed WAL fsync poisons the engine's
// durability — every later durability call surfaces the same error, nothing
// self-heals, and a restart recovers exactly the synced prefix.
func TestWALSyncFailureSticky(t *testing.T) {
	ops := genDurOps(77, 60)
	dir := t.TempDir()
	inj := fault.NewDisk(nil).FailAt(walName, fault.OpSync, 2, fault.SyncErr)
	opts := durOpts(dir)
	opts.fs = inj
	e, _, err := durQuery().BuildDurable(opts)
	if err != nil {
		t.Fatal(err) // sync #1 is the fresh-WAL reset
	}
	applyDurOps(e, ops[:40])
	err1 := e.SyncWAL()
	if err1 == nil {
		t.Fatal("SyncWAL succeeded through a failing fsync")
	}
	applyDurOps(e, ops[40:]) // silently dropped from the log: engine is poisoned
	if err2 := e.SyncWAL(); err2 != err1 {
		t.Fatalf("sticky error not preserved: %v vs %v", err2, err1)
	}
	if err := e.SaveCheckpoint(); err == nil {
		t.Fatal("SaveCheckpoint accepted a poisoned WAL")
	}
	if st := e.Stats(); st.WALErrors != 1 {
		t.Fatalf("WALErrors = %d, want 1", st.WALErrors)
	}
	if len(inj.Fired()) != 1 {
		t.Fatalf("injector fired %v, want exactly one fault", inj.Fired())
	}
	if err := e.CloseKeep(); err != err1 {
		t.Fatalf("CloseKeep returned %v, want the sticky %v", err, err1)
	}

	// The flush preceding the failed fsync reached the page cache, so the
	// recoverable prefix is everything logged before the poison.
	b, _ := rebuild(t, dir)
	if n := b.Stats().WALRecordsReplayed; n != 40 {
		t.Fatalf("replayed %d records, want the 40 synced ones", n)
	}
	refs := newRefStates(t, ops)
	if got, want := relContents(b), refs.at(40); !reflect.DeepEqual(got, want) {
		t.Fatal("restart state is not the synced prefix")
	}
	b.Close()
}

// TestWALWriteFailureSticky: a failed WAL write poisons durability the same
// way a failed fsync does.
func TestWALWriteFailureSticky(t *testing.T) {
	ops := genDurOps(88, 40)
	dir := t.TempDir()
	// Write #1 is the fresh-WAL header flush; #2 is the first frame flush.
	inj := fault.NewDisk(nil).FailAt(walName, fault.OpWrite, 2, fault.WriteErr)
	opts := durOpts(dir)
	opts.fs = inj
	e, _, err := durQuery().BuildDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	applyDurOps(e, ops)
	err1 := e.SyncWAL()
	if err1 == nil {
		t.Fatal("SyncWAL succeeded through a failing write")
	}
	if err2 := e.SyncWAL(); err2 != err1 {
		t.Fatalf("sticky error not preserved: %v vs %v", err2, err1)
	}
	if st := e.Stats(); st.WALErrors != 1 {
		t.Fatalf("WALErrors = %d, want 1", st.WALErrors)
	}
	if err := e.CloseKeep(); err == nil {
		t.Fatal("CloseKeep reported success after a lost write")
	}
	// Nothing but the header survived; the restart must come up empty rather
	// than replay a torn buffer.
	b, _ := rebuild(t, dir)
	if n := b.Stats().WALRecordsReplayed; n != 0 {
		t.Fatalf("replayed %d records from a failed-write log", n)
	}
	b.Close()
}

// TestCheckpointWriteFailureKeepsWAL: a torn checkpoint write fails
// SaveCheckpoint cleanly and must leave the WAL intact — the old durable
// record stays authoritative.
func TestCheckpointWriteFailureKeepsWAL(t *testing.T) {
	const total = 120
	ops := genDurOps(99, total)
	dir := t.TempDir()
	inj := fault.NewDisk(nil).FailAt(ckptName+".tmp", fault.OpWrite, 1, fault.TornWrite)
	opts := durOpts(dir)
	opts.fs = inj
	e, _, err := durQuery().BuildDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	applyDurOps(e, ops)
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveCheckpoint(); err == nil {
		t.Fatal("SaveCheckpoint succeeded through a torn write")
	}
	// The failure is not a WAL fault: logging must still work.
	if err := e.SyncWAL(); err != nil {
		t.Fatalf("WAL poisoned by a checkpoint-only failure: %v", err)
	}
	// Kill, then restart without the injector: the full WAL replays.
	b, _ := rebuild(t, dir)
	if n := b.Stats().WALRecordsReplayed; n != total {
		t.Fatalf("replayed %d records, want %d", n, total)
	}
	refs := newRefStates(t, ops)
	if got, want := relContents(b), refs.at(total); !reflect.DeepEqual(got, want) {
		t.Fatal("restart lost operations after a failed checkpoint")
	}
	b.Close()
}

// TestCloseKeepCheckpointFailureKeepsWAL: when the shutdown checkpoint's
// rename fails, CloseKeep must report the error and leave the WAL as the
// durable record instead of truncating it (the state-loss bug this PR fixes).
func TestCloseKeepCheckpointFailureKeepsWAL(t *testing.T) {
	const total = 100
	ops := genDurOps(111, total)
	dir := t.TempDir()
	inj := fault.NewDisk(nil).FailAt(ckptName, fault.OpRename, 1, fault.WriteErr)
	opts := durOpts(dir)
	opts.fs = inj
	e, _, err := durQuery().BuildDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	applyDurOps(e, ops)
	if err := e.CloseKeep(); err == nil {
		t.Fatal("CloseKeep reported success though the checkpoint never published")
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= int64(walHdrBytes) {
		t.Fatal("CloseKeep truncated the WAL after a failed checkpoint")
	}
	b, _ := rebuild(t, dir)
	if n := b.Stats().WALRecordsReplayed; n != total {
		t.Fatalf("replayed %d records, want %d", n, total)
	}
	refs := newRefStates(t, ops)
	if got, want := relContents(b), refs.at(total); !reflect.DeepEqual(got, want) {
		t.Fatal("failed-checkpoint shutdown lost operations")
	}
	b.Close()
}

// validFramePrefix mirrors the WAL scanner: the number of leading frames with
// valid header and body checksums and a contiguous sequence, under a valid
// epoch-0 v2 header. This is the exact count replay must apply when it
// reports a clean or torn-tail stop.
func validFramePrefix(data []byte) uint64 {
	if len(data) < walHdrBytes ||
		binary.LittleEndian.Uint32(data[0:]) != walMagic ||
		binary.LittleEndian.Uint32(data[4:]) != durVersion ||
		binary.LittleEndian.Uint64(data[8:]) != 0 {
		return 0
	}
	frames := data[walHdrBytes:]
	pos, n := 0, uint64(0)
	for pos+frameHdrBytes <= len(frames) {
		if binary.LittleEndian.Uint32(frames[pos:]) !=
			crc32.Checksum(frames[pos+4:pos+frameHdrBytes], crcTable) {
			break
		}
		l := int(binary.LittleEndian.Uint32(frames[pos+8:]))
		if l > walMaxRecord || pos+frameHdrBytes+l > len(frames) {
			break
		}
		if binary.LittleEndian.Uint32(frames[pos+4:]) !=
			crc32.Checksum(frames[pos+frameHdrBytes:pos+frameHdrBytes+l], crcTable) {
			break
		}
		if binary.LittleEndian.Uint64(frames[pos+12:]) != n+1 {
			break
		}
		n++
		pos += frameHdrBytes + l
	}
	return n
}

// FuzzReplayWAL: arbitrary bytes as wal.log must never panic BuildDurable,
// and any accepted log must apply exactly its valid checksummed frame prefix.
func FuzzReplayWAL(f *testing.F) {
	ops := genDurOps(123, 40)
	seedDir := f.TempDir()
	e, _, err := durQuery().BuildDurable(durOpts(seedDir))
	if err != nil {
		f.Fatal(err)
	}
	applyDurOps(e, ops)
	if err := e.SyncWAL(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 1
	f.Add(mut)
	f.Add(seed[:walHdrBytes])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Skip()
		}
		b, _, err := durQuery().BuildDurable(durOpts(dir))
		if err != nil {
			return // clean rejection; the proof is the absence of a panic
		}
		want := validFramePrefix(data)
		if got := b.Stats().WALRecordsReplayed; got != want {
			t.Fatalf("replayed %d records, valid checksummed prefix has %d", got, want)
		}
		b.Close()
	})
}
