package acache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"acache/internal/core"
	"acache/internal/fault"
	"acache/internal/tuple"
)

// Durable engine state generalizes the shard-recovery checkpoint/WAL pair to
// whole-daemon restarts: a checkpoint file plus a write-ahead log of ingress
// calls form the engine's durable state on disk, and BuildDurable
// reconstructs the engine from them — bulk loading the windows and replaying
// the WAL tail — instead of re-streaming the source.
//
// Crash consistency rests on three mechanisms:
//
//   - Every WAL record is framed with a header CRC32-C, a body CRC32-C, and a
//     sequence number, and the WAL file opens with an epoch header. Replay
//     applies exactly the valid checksummed frame prefix: a torn tail (the
//     crash cut off the last append) ends replay cleanly, while corruption in
//     front of a later valid frame — which no single crash can produce — is a
//     clean error, never a silent truncation and never a panic.
//   - The checkpoint carries the same epoch, bumped on every save, plus a
//     whole-file CRC32-C, and is published atomically (write temp, fsync,
//     rename, fsync directory). A crash between the checkpoint publish and
//     the WAL truncate leaves a WAL whose epoch is behind the checkpoint's;
//     replay detects that and ignores the stale records instead of
//     double-applying them.
//   - Durability I/O failures are sticky and loud: the first failed WAL write
//     or sync poisons the log (logging stops, SyncWAL / SaveCheckpoint /
//     CloseKeep return the sticky error), so a fault can never silently widen
//     the loss window. Restart recovers the durable prefix.
//
// A checkpoint, SaveCheckpoint's at any time or CloseKeep's at shutdown,
// inlines every window tuple, so it alone restores the windows. Caches are
// deliberately absent: the paper's
// consistency-without-completeness property (Section 3.2) makes a cache-cold
// restart exact, just temporarily slower.
const (
	durMagic   = uint32(0xacac_d001)
	durVersion = uint32(2)

	walMagic      = uint32(0xacac_1a06)
	walHdrBytes   = 16 // magic u32, version u32, epoch u64
	frameHdrBytes = 20 // hcrc u32, bcrc u32, len u32, seq u64

	// walMaxRecord bounds a frame's payload so a corrupted length field
	// cannot drive a giant allocation before the body checksum runs.
	walMaxRecord = 1 << 28

	ckptName = "engine.ckpt"
	walName  = "wal.log"
)

// crcTable is the Castagnoli (CRC32-C) polynomial, hardware-accelerated on
// the platforms the engine targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Relation kinds in the checkpoint, mirroring the window declaration.
const (
	durUnbounded byte = iota
	durSliding
	durPartitioned
	durTime
)

// durInline tags a checkpoint entry whose values follow inline, the only
// kind there is: parseDurCheckpoint rejects any other tag.
const durInline byte = 0

// WAL record kinds — one per ingress entry point, so replay re-drives the
// exact public calls (window operators included) rather than raw updates.
const (
	walInsert byte = iota + 1
	walDelete
	walAppend
	walAppendAt
	walAdvance
	walBatch
)

// durable is the engine's durability sidecar: the WAL writer plus the paths
// that make up the on-disk state.
type durable struct {
	dir     string
	ckPath  string
	walPath string
	fs      fault.FS
	walF    fault.File
	walW    *bufio.Writer
	replay  bool   // suppress logging while the WAL tail re-drives the engine
	walErr  error  // sticky durability failure; poisons the WAL (see fail)
	walErrs uint64 // durability I/O failures observed (Stats.WALErrors)
	epoch   uint64 // generation of the checkpoint this WAL extends
	seq     uint64 // sequence of the last frame appended to the current WAL
	rec     []byte // frame payload scratch, reused per record

	// Replay report, set once by BuildDurable (Stats.WALRecordsReplayed,
	// WALBytesIgnored, WALReplayReason).
	recsReplayed uint64
	bytesIgnored uint64
	replayReason string
}

// fail records a durability I/O failure. The first one sticks: the WAL is
// poisoned, logging becomes a no-op, and every durability entry point
// (SyncWAL, SaveCheckpoint, CloseKeep) surfaces the sticky error until the
// process restarts — there is no self-heal, because records skipped while
// poisoned can never be recovered into the log.
func (d *durable) fail(err error) error {
	d.walErrs++
	if d.walErr == nil {
		d.walErr = err
	}
	return d.walErr
}

// BuildDurable builds the query with durable engine state rooted at
// opts.Tier.Dir, which it creates if needed. If the directory holds a
// checkpoint or a WAL from a previous run, the engine restarts warm: windows
// are restored from the checkpoint and the WAL's valid frame prefix is
// replayed through the normal ingress paths with result delivery unattached
// (those results were delivered before the shutdown). Corrupted state — a
// failed checksum, a mid-log tear, a WAL from the wrong epoch direction — is
// a clean error, never a panic and never a silently wrong window. It returns the engine and whether the start was
// warm.
//
// After a warm or cold start the engine logs every ingress call to the WAL;
// call SaveCheckpoint periodically to bound replay, SyncWAL to bound loss,
// and CloseKeep (not Close, which discards the durable state) to shut down
// for a future warm restart. Counters (Stats) restart from zero on every
// restart — results, windows, and future cost accounting are what is exact.
func (q *Query) BuildDurable(opts Options) (*Engine, bool, error) {
	if q.err != nil {
		return nil, false, q.err
	}
	if opts.Tier.Dir == "" {
		return nil, false, fmt.Errorf("acache: BuildDurable requires Options.Tier.Dir")
	}
	fs := fault.Sys(opts.fs)
	dir := opts.Tier.Dir
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, false, err
	}
	ckPath := filepath.Join(dir, ckptName)
	walPath := filepath.Join(dir, walName)

	var ck *durCheckpoint
	ckData, err := fs.ReadFile(ckPath)
	switch {
	case err == nil:
		if ck, err = parseDurCheckpoint(ckData, q, dir); err != nil {
			return nil, false, err
		}
	case !os.IsNotExist(err):
		return nil, false, err
	}
	walData, err := fs.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, false, err
	}

	e, err := q.Build(opts)
	if err != nil {
		return nil, false, err
	}
	// abort gives the engine up without discarding the on-disk state: the
	// checkpoint and WAL stay put for inspection or a repaired retry.
	abort := func(err error) (*Engine, bool, error) {
		if e.dur != nil && e.dur.walF != nil {
			e.dur.walF.Close()
		}
		return nil, false, err
	}
	warm := false
	var ckEpoch uint64
	if ck != nil {
		if err := e.restoreDur(ck); err != nil {
			return abort(err)
		}
		ckEpoch = ck.epoch
		warm = true
	}
	d := &durable{dir: dir, ckPath: ckPath, walPath: walPath, fs: fs, epoch: ckEpoch}
	e.dur = d
	rep, err := e.recoverWAL(walData, ckEpoch)
	if err != nil {
		return abort(err)
	}
	d.recsReplayed = uint64(rep.applied)
	d.bytesIgnored = uint64(rep.ignored)
	d.replayReason = rep.reason
	if rep.applied > 0 {
		warm = true
	}
	f, err := fs.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return abort(err)
	}
	d.walF = f
	d.walW = bufio.NewWriter(f)
	if rep.keep && rep.valid > 0 {
		// Normalize: drop the ignored tail (if any) and resume appending
		// right after the last valid frame, continuing its sequence.
		end := int64(walHdrBytes + rep.valid)
		d.seq = rep.lastSeq
		if err := f.Truncate(end); err != nil {
			return abort(err)
		}
		if _, err := f.Seek(end, 0); err != nil {
			return abort(err)
		}
	} else if err := d.resetWAL(); err != nil {
		return abort(err)
	}
	return e, warm, nil
}

// SaveCheckpoint writes a self-contained checkpoint (every tuple inlined)
// and resets the WAL under the new epoch — the periodic call that bounds
// crash-replay work. Only durable engines (BuildDurable) support it. On a
// poisoned WAL it refuses with the sticky error: records logged since the
// failure never reached the log, so a checkpoint would legitimize their
// loss silently.
func (e *Engine) SaveCheckpoint() error {
	if e.dur == nil {
		return fmt.Errorf("acache: SaveCheckpoint on a non-durable engine (use BuildDurable)")
	}
	if e.dur.walErr != nil {
		return e.dur.walErr
	}
	if err := e.writeCheckpoint(); err != nil {
		return err
	}
	return e.dur.resetWAL()
}

// SyncWAL flushes buffered WAL records to stable storage, bounding how many
// ingress calls a crash can lose. Any flush or sync failure is sticky: it
// poisons the WAL and is returned from here and every later durability call.
func (e *Engine) SyncWAL() error {
	if e.dur == nil {
		return fmt.Errorf("acache: SyncWAL on a non-durable engine")
	}
	return e.dur.sync()
}

// CloseKeep shuts a durable engine down for a warm restart: it writes a
// shutdown checkpoint (SaveCheckpoint, which resets the WAL the checkpoint
// subsumed) and closes the WAL, leaving exactly the checkpoint and the empty
// WAL in the directory. The engine must not be used afterwards. Use Close
// instead to discard the durable state.
//
// If the checkpoint cannot be written, the WAL is kept (flushed as far as
// the disk allows) instead of being truncated — the prior checkpoint plus
// the WAL remain the durable record. On a poisoned WAL, CloseKeep closes the
// WAL and returns the sticky error.
func (e *Engine) CloseKeep() error {
	if e.dur == nil {
		return fmt.Errorf("acache: CloseKeep on a non-durable engine (use BuildDurable)")
	}
	d := e.dur
	err := e.SaveCheckpoint()
	if err != nil {
		// No checkpoint landed: the WAL is the durable record. Keep it.
		d.sync()
	}
	if cerr := d.closeWAL(); err == nil {
		err = cerr
	}
	return err
}

// discard removes the durable state files — Close()'s transient teardown.
func (d *durable) discard() {
	d.closeWAL()
	d.fs.Remove(d.walPath)
	d.fs.Remove(d.ckPath)
}

func (d *durable) closeWAL() error {
	if d.walF == nil {
		return d.walErr
	}
	err := d.walErr
	if ferr := d.walW.Flush(); ferr != nil {
		d.fail(ferr)
		if err == nil {
			err = ferr
		}
	}
	if cerr := d.walF.Close(); err == nil {
		err = cerr
	}
	d.walF, d.walW = nil, nil
	return err
}

func (d *durable) sync() error {
	if d.walErr != nil {
		return d.walErr
	}
	if d.walF == nil {
		return nil
	}
	if err := d.walW.Flush(); err != nil {
		return d.fail(err)
	}
	if err := d.walF.Sync(); err != nil {
		return d.fail(err)
	}
	return nil
}

// resetWAL empties the log after a checkpoint made its records redundant and
// stamps the fresh header with the current epoch. Failures are sticky.
func (d *durable) resetWAL() error {
	if d.walF == nil {
		return nil
	}
	if d.walErr != nil {
		return d.walErr
	}
	d.walW.Reset(d.walF)
	if err := d.walF.Truncate(0); err != nil {
		return d.fail(err)
	}
	if _, err := d.walF.Seek(0, 0); err != nil {
		return d.fail(err)
	}
	d.seq = 0
	var hdr [walHdrBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], durVersion)
	binary.LittleEndian.PutUint64(hdr[8:], d.epoch)
	if _, err := d.walW.Write(hdr[:]); err != nil {
		return d.fail(err)
	}
	if err := d.walW.Flush(); err != nil {
		return d.fail(err)
	}
	if err := d.walF.Sync(); err != nil {
		return d.fail(err)
	}
	return nil
}

// ── WAL append side ──────────────────────────────────────────────────────────

// writeFrame appends one checksummed, sequence-stamped frame around payload.
// Write failures poison the WAL.
func (d *durable) writeFrame(payload []byte) {
	if d.walErr != nil || d.walW == nil {
		return
	}
	d.seq++
	var hdr [frameHdrBytes]byte
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[12:], d.seq)
	binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(hdr[4:], crcTable))
	if _, err := d.walW.Write(hdr[:]); err != nil {
		d.fail(err)
		return
	}
	if _, err := d.walW.Write(payload); err != nil {
		d.fail(err)
	}
}

// logOp appends one single-tuple ingress call to a durable engine's WAL. ts
// is meaningful for walAppendAt and walAdvance only. It inlines into the
// ingress paths, so a non-durable engine pays one nil check.
func (e *Engine) logOp(kind byte, rel int, ts int64, values []int64) {
	if e.dur != nil {
		e.dur.logOp(kind, rel, ts, values)
	}
}

func (d *durable) logOp(kind byte, rel int, ts int64, values []int64) {
	if d.replay || d.walErr != nil || d.walW == nil {
		return
	}
	p := d.rec[:0]
	p = append(p, kind)
	p = binary.LittleEndian.AppendUint32(p, uint32(rel))
	p = binary.LittleEndian.AppendUint64(p, uint64(ts))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(values)))
	for _, v := range values {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	d.rec = p
	d.writeFrame(p)
}

// logBatch appends an AppendBatch call: the batch must replay as one call
// because its grouped expiry schedule differs from per-row appends.
func (d *durable) logBatch(rel int, rows [][]int64) {
	if d.replay || d.walErr != nil || d.walW == nil {
		return
	}
	p := d.rec[:0]
	p = append(p, walBatch)
	p = binary.LittleEndian.AppendUint32(p, uint32(rel))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			p = binary.LittleEndian.AppendUint64(p, uint64(v))
		}
	}
	d.rec = p
	d.writeFrame(p)
}

// ── WAL replay side ──────────────────────────────────────────────────────────

// walReplay reports how WAL recovery ended.
type walReplay struct {
	applied int    // frames applied to the engine
	valid   int    // bytes of valid frames past the file header
	ignored int    // bytes not applied (torn tail, stale epoch, torn header)
	lastSeq uint64 // sequence of the last applied frame
	keep    bool   // the file can be truncated to valid and appended to
	reason  string // how replay ended: empty|clean|torn-tail|torn-header|stale-epoch
}

// recoverWAL validates the WAL header against the checkpoint's epoch and
// replays the valid frame prefix. Stale epochs (the crash landed between the
// checkpoint publish and the WAL truncate) are ignored wholesale; a WAL
// ahead of the checkpoint means the checkpoint went backwards and is a clean
// error.
func (e *Engine) recoverWAL(data []byte, ckEpoch uint64) (walReplay, error) {
	if len(data) == 0 {
		return walReplay{reason: "empty"}, nil
	}
	if len(data) < walHdrBytes {
		// A crash between the WAL reset's truncate and its header write.
		return walReplay{ignored: len(data), reason: "torn-header"}, nil
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != walMagic {
		return walReplay{}, fmt.Errorf("acache: wal %s: bad magic %#x", e.dur.walPath, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != durVersion {
		return walReplay{}, fmt.Errorf("acache: wal %s: codec version %d, want %d", e.dur.walPath, v, durVersion)
	}
	epoch := binary.LittleEndian.Uint64(data[8:])
	switch {
	case epoch < ckEpoch:
		// Every record predates the checkpoint: applying them would
		// double-apply. Ignore the log; resetWAL rewrites it fresh.
		return walReplay{ignored: len(data) - walHdrBytes, reason: "stale-epoch"}, nil
	case epoch > ckEpoch:
		return walReplay{}, fmt.Errorf("acache: wal %s: epoch %d ahead of checkpoint epoch %d (checkpoint lost or rolled back)",
			e.dur.walPath, epoch, ckEpoch)
	}
	e.dur.replay = true
	defer func() { e.dur.replay = false }()
	return e.replayFrames(data[walHdrBytes:])
}

// replayFrames applies the valid checksummed frame prefix of the WAL body.
// An invalid frame ends replay: cleanly if nothing valid follows (a torn
// tail — the only shape a crash can produce), with an error if a later valid
// frame proves mid-log corruption. Record payloads are validated against the
// query before dispatch, so a checksummed-but-nonsensical record is a clean
// error, never a panic.
func (e *Engine) replayFrames(frames []byte) (walReplay, error) {
	rep := walReplay{keep: true, reason: "clean"}
	pos := 0
	for pos < len(frames) {
		if pos+frameHdrBytes > len(frames) {
			rep.ignored = len(frames) - pos
			rep.reason = "torn-tail"
			return rep, nil
		}
		hcrc := binary.LittleEndian.Uint32(frames[pos:])
		bcrc := binary.LittleEndian.Uint32(frames[pos+4:])
		l := int(binary.LittleEndian.Uint32(frames[pos+8:]))
		seq := binary.LittleEndian.Uint64(frames[pos+12:])
		bad := ""
		switch {
		case hcrc != crc32.Checksum(frames[pos+4:pos+frameHdrBytes], crcTable):
			bad = "header checksum"
		case l > walMaxRecord:
			bad = "length"
		case pos+frameHdrBytes+l > len(frames):
			bad = "body cut short"
		case bcrc != crc32.Checksum(frames[pos+frameHdrBytes:pos+frameHdrBytes+l], crcTable):
			bad = "body checksum"
		}
		if bad != "" {
			if off, ok := nextValidFrame(frames, pos+1); ok {
				return rep, fmt.Errorf("acache: wal: bad frame %s at offset %d with a valid frame at offset %d behind it: mid-log corruption",
					bad, walHdrBytes+pos, walHdrBytes+off)
			}
			rep.ignored = len(frames) - pos
			rep.reason = "torn-tail"
			return rep, nil
		}
		if seq != rep.lastSeq+1 {
			return rep, fmt.Errorf("acache: wal: frame at offset %d: sequence %d, want %d",
				walHdrBytes+pos, seq, rep.lastSeq+1)
		}
		if err := e.applyWALRecord(frames[pos+frameHdrBytes : pos+frameHdrBytes+l]); err != nil {
			return rep, fmt.Errorf("acache: wal: record %d (offset %d): %w", seq, walHdrBytes+pos, err)
		}
		rep.lastSeq = seq
		rep.applied++
		pos += frameHdrBytes + l
		rep.valid = pos
	}
	return rep, nil
}

// nextValidFrame scans forward for any offset that begins a fully valid
// frame — the mid-log-corruption detector. A crash truncates the log at one
// point, so a valid frame after an invalid one cannot be a tear.
func nextValidFrame(frames []byte, from int) (int, bool) {
	for off := from; off+frameHdrBytes <= len(frames); off++ {
		if binary.LittleEndian.Uint32(frames[off:]) != crc32.Checksum(frames[off+4:off+frameHdrBytes], crcTable) {
			continue
		}
		l := int(binary.LittleEndian.Uint32(frames[off+8:]))
		if l > walMaxRecord || off+frameHdrBytes+l > len(frames) {
			continue
		}
		if binary.LittleEndian.Uint32(frames[off+4:]) != crc32.Checksum(frames[off+frameHdrBytes:off+frameHdrBytes+l], crcTable) {
			continue
		}
		return off, true
	}
	return 0, false
}

// applyWALRecord validates one frame payload against the query — relation
// range, timestamp monotonicity — and re-drives it through the engine's
// public ingress path. Validation failures and any panic out of the dispatch
// (a record of the wrong arity or for the wrong window kind panics in the
// ingress before it touches a window) come back as errors: replay never takes
// the engine down.
func (e *Engine) applyWALRecord(p []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay: %v", r)
		}
	}()
	if len(p) == 0 {
		return fmt.Errorf("empty record")
	}
	kind := p[0]
	names := e.q.names
	if kind == walBatch {
		if len(p) < 9 {
			return fmt.Errorf("batch record is %d bytes, want at least 9", len(p))
		}
		rel := int(binary.LittleEndian.Uint32(p[1:]))
		rows := int(binary.LittleEndian.Uint32(p[5:]))
		if rel < 0 || rel >= len(names) {
			return fmt.Errorf("batch: relation %d out of range (query has %d)", rel, len(names))
		}
		arity := e.q.schemas[rel].Len()
		if len(p) != 9+rows*arity*8 {
			return fmt.Errorf("batch: %d bytes for %d rows of arity %d", len(p), rows, arity)
		}
		body := p[9:]
		rs := make([][]int64, rows)
		for r := 0; r < rows; r++ {
			row := make([]int64, arity)
			for c := 0; c < arity; c++ {
				row[c] = int64(binary.LittleEndian.Uint64(body[(r*arity+c)*8:]))
			}
			rs[r] = row
		}
		e.AppendBatch(names[rel], rs)
		return nil
	}
	if kind < walInsert || kind > walAdvance {
		return fmt.Errorf("unknown record kind %d", kind)
	}
	if len(p) < 17 {
		return fmt.Errorf("record is %d bytes, want at least 17", len(p))
	}
	rel := int(binary.LittleEndian.Uint32(p[1:]))
	ts := int64(binary.LittleEndian.Uint64(p[5:]))
	n := int(binary.LittleEndian.Uint32(p[13:]))
	if len(p) != 17+n*8 {
		return fmt.Errorf("%d bytes for %d values", len(p), n)
	}
	if kind == walAdvance {
		if n != 0 {
			return fmt.Errorf("advance record carries %d values", n)
		}
		if ts < e.maxClock() {
			return fmt.Errorf("advance: timestamp %d regresses clock %d", ts, e.maxClock())
		}
		e.AdvanceTime(ts)
		return nil
	}
	if rel < 0 || rel >= len(names) {
		return fmt.Errorf("relation %d out of range (query has %d)", rel, len(names))
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(p[17+i*8:]))
	}
	switch kind {
	case walInsert:
		e.Insert(names[rel], vals...)
	case walDelete:
		e.Delete(names[rel], vals...)
	case walAppend:
		e.Append(names[rel], vals...)
	case walAppendAt:
		if ts < e.maxClock() {
			return fmt.Errorf("append-at: timestamp %d regresses clock %d", ts, e.maxClock())
		}
		e.AppendAt(names[rel], ts, vals...)
	}
	return nil
}

// maxClock is the largest clock across the time-windowed relations — the
// replay-time monotonicity bar for walAppendAt / walAdvance records.
func (e *Engine) maxClock() int64 {
	var max int64
	for _, w := range e.timeWins {
		if w != nil && w.Clock() > max {
			max = w.Clock()
		}
	}
	return max
}

// ── Checkpoint writer ────────────────────────────────────────────────────────

// writeCheckpoint serializes the engine's window state, every tuple inline,
// under epoch+1 and publishes it atomically: temp file, fsync, rename,
// directory fsync. The sidecar's epoch advances only after the checkpoint is
// fully published.
func (e *Engine) writeCheckpoint() error {
	d := e.dur
	epoch := d.epoch + 1
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(durMagic)
	u32(durVersion)
	u64(epoch)
	u64(e.seq)
	u32(uint32(len(e.q.names)))
	for i := range e.q.names {
		kind, clock, ts, stamps := e.relState(i)
		buf = append(buf, kind)
		if kind == durTime {
			u64(uint64(clock))
		}
		u32(uint32(e.q.schemas[i].Len()))
		u32(uint32(len(ts)))
		for j, t := range ts {
			buf = append(buf, durInline)
			if kind == durTime {
				u64(uint64(stamps[j]))
			}
			for _, v := range t {
				u64(uint64(v))
			}
		}
	}
	u32(crc32.Checksum(buf, crcTable))
	tmp := d.ckPath + ".tmp"
	f, err := d.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := d.fs.Rename(tmp, d.ckPath); err != nil {
		return err
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		return err
	}
	d.epoch = epoch
	return nil
}

// relState returns relation i's checkpointable window state: its kind, the
// time-window clock (durTime only), the live tuples in the order the window
// operator will expire them, and their timestamps (durTime only).
func (e *Engine) relState(i int) (kind byte, clock int64, ts []tuple.Tuple, stamps []int64) {
	switch kind = e.winKind(i); kind {
	case durTime:
		ts, stamps = e.timeWins[i].ContentsTimed()
		return kind, e.timeWins[i].Clock(), ts, stamps
	case durPartitioned:
		return kind, 0, e.partWins[i].Contents(), nil
	case durSliding:
		return kind, 0, e.windows[i].Contents(), nil
	}
	// Unbounded: no operator state; the store is the window.
	return kind, 0, e.core.Exec().Store(i).All(), nil
}

// winKind is relation i's window kind as the checkpoint records it.
func (in *ingress) winKind(i int) byte {
	switch {
	case in.timeWins[i] != nil:
		return durTime
	case in.partWins[i] != nil:
		return durPartitioned
	case in.windows[i].Size() > 0:
		return durSliding
	}
	return durUnbounded
}

// ── Checkpoint reader ────────────────────────────────────────────────────────

// durCheckpoint is a parsed checkpoint.
type durCheckpoint struct {
	epoch  uint64
	seq    uint64
	kinds  []byte
	clocks []int64
	rels   [][]tuple.Tuple
	stamps [][]int64
}

// parseDurCheckpoint decodes and validates a checkpoint against the query.
// The whole-file CRC is verified before anything else, so every later parse
// error means a codec or query mismatch, not bit rot.
func parseDurCheckpoint(data []byte, q *Query, dir string) (*durCheckpoint, error) {
	pos := 0
	fail := func(f string, args ...any) (*durCheckpoint, error) {
		return nil, fmt.Errorf("acache: checkpoint %s: %s", filepath.Join(dir, ckptName), fmt.Sprintf(f, args...))
	}
	if len(data) < 4 {
		return fail("truncated (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != sum {
		return fail("checksum %#x, want %#x: truncated or corrupted", got, sum)
	}
	data = body
	u32 := func() (uint32, bool) {
		if pos+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		return v, true
	}
	if m, ok := u32(); !ok || m != durMagic {
		return fail("bad magic")
	}
	if v, ok := u32(); !ok || v != durVersion {
		return fail("codec version mismatch")
	}
	epoch, ok := u64()
	if !ok {
		return fail("truncated header")
	}
	seq, ok := u64()
	if !ok {
		return fail("truncated header")
	}
	nrels, ok := u32()
	if !ok || int(nrels) != len(q.names) {
		return fail("relation count %d, query has %d", nrels, len(q.names))
	}
	ck := &durCheckpoint{
		epoch:  epoch,
		seq:    seq,
		kinds:  make([]byte, nrels),
		clocks: make([]int64, nrels),
		rels:   make([][]tuple.Tuple, nrels),
		stamps: make([][]int64, nrels),
	}
	for i := 0; i < int(nrels); i++ {
		if pos >= len(data) {
			return fail("truncated at relation %d", i)
		}
		kind := data[pos]
		pos++
		if kind > durTime {
			return fail("relation %d: unknown kind %d", i, kind)
		}
		ck.kinds[i] = kind
		if kind == durTime {
			c, ok := u64()
			if !ok {
				return fail("relation %d: truncated clock", i)
			}
			ck.clocks[i] = int64(c)
		}
		arity, ok := u32()
		if !ok || int(arity) != q.schemas[i].Len() {
			return fail("relation %d: arity %d, schema has %d", i, arity, q.schemas[i].Len())
		}
		count, ok := u32()
		if !ok {
			return fail("relation %d: truncated count", i)
		}
		ts := make([]tuple.Tuple, 0, count)
		var stamps []int64
		for j := 0; j < int(count); j++ {
			if pos >= len(data) {
				return fail("relation %d: truncated entry %d", i, j)
			}
			tag := data[pos]
			pos++
			var entryTS int64
			if kind == durTime {
				v, ok := u64()
				if !ok {
					return fail("relation %d: truncated timestamp", i)
				}
				entryTS = int64(v)
			}
			switch tag {
			case durInline:
				t := make(tuple.Tuple, arity)
				for c := range t {
					v, ok := u64()
					if !ok {
						return fail("relation %d: truncated tuple", i)
					}
					t[c] = tuple.Value(v)
				}
				ts = append(ts, t)
			default:
				return fail("relation %d: unknown entry tag %d", i, tag)
			}
			if kind == durTime {
				stamps = append(stamps, entryTS)
			}
		}
		ck.rels[i] = ts
		ck.stamps[i] = stamps
	}
	if pos != len(data) {
		return fail("%d trailing bytes", len(data)-pos)
	}
	return ck, nil
}

// restoreDur bulk-loads a parsed checkpoint into a freshly built engine:
// tuples go into the relation stores (RestoreWindows) and into the ingress
// window operators, and the
// update sequence resumes where it left off. Structural invariants the
// loaders enforce by panicking (window overflow, timestamp regressions)
// come back as errors — corrupted state never takes the process down.
func (e *Engine) restoreDur(ck *durCheckpoint) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("acache: checkpoint restore: %v", r)
		}
	}()
	for i, kind := range ck.kinds {
		if want := e.winKind(i); kind != want {
			return fmt.Errorf("acache: checkpoint relation %q window kind %d, query declares %d",
				e.q.names[i], kind, want)
		}
	}
	if err := e.core.RestoreWindows(&core.Checkpoint{Rels: ck.rels}); err != nil {
		return err
	}
	for i, kind := range ck.kinds {
		switch kind {
		case durSliding:
			e.windows[i].Load(ck.rels[i])
		case durPartitioned:
			e.partWins[i].Load(ck.rels[i])
		case durTime:
			e.timeWins[i].Load(ck.rels[i], ck.stamps[i], ck.clocks[i])
		}
	}
	e.seq = ck.seq
	return nil
}
