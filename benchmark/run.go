package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"acache"
)

// sink folds result deltas into a count and an order-independent checksum
// (sum of +hash(row) for inserts, -hash(row) for retractions). It is the
// harness's OnResult callback and therefore part of every measured request.
type sink struct {
	count int64
	sum   uint64
}

func hashRow(row []int64) uint64 {
	h := uint64(len(row)) * 0x9e3779b97f4a7c15
	for _, v := range row {
		h = (h ^ uint64(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

func (s *sink) add(insert bool, row []int64) {
	s.count++
	if insert {
		s.sum += hashRow(row)
	} else {
		s.sum -= hashRow(row)
	}
}

// query declares w's query through the public builder.
func (w workload) query() *acache.Query {
	q := acache.NewQuery()
	for _, r := range w.rels {
		q.WindowedRelation(r.name, r.window, r.attrs...)
	}
	for _, j := range w.joins {
		q.Join(j[0], j[1])
	}
	return q
}

// options is the Options value the workload's engine is built with.
func (w workload) options(seed int64) acache.Options {
	return acache.Options{Seed: mixSeed(seed), NoIndex: w.noIndex, DisableCaching: w.noCache}
}

// prefix is the number of appends fed before the measure stream starts.
func (w workload) prefix() int { return w.warmup + w.logged }

// live is one built and warmed engine, ready for its measure stream.
type live struct {
	w       workload
	names   []string
	serial  *acache.Engine        // serial and durable workloads
	sharded *acache.ShardedEngine // shard2_batch
	out     *sink
	setup   time.Duration
	closers []func()

	// durable set-up telemetry (zero elsewhere)
	checkpointAt, recoverAt time.Time
	checkpoint, recover     time.Duration
	replayed                uint64
	walBytes                int64
}

func (l *live) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
}

// feed appends ops one by one outside any timing (warm-up).
func (l *live) feed(ops []op) {
	if l.sharded != nil {
		for i := range ops {
			o := &ops[i]
			l.sharded.Append(l.names[o.idx], o.vals[:o.n]...)
		}
		l.sharded.Flush()
		return
	}
	for i := range ops {
		o := &ops[i]
		l.serial.Append(l.names[o.idx], o.vals[:o.n]...)
	}
}

// build constructs w's engine through the public API and brings it to the
// start of the measure stream. Everything in here is what setup_s times:
// Build*, the warm-up appends and, for the durable workload, checkpoint,
// logged appends, a simulated crash and the warm restart. scratch is a
// directory the harness owns; durable state lives in fresh subdirectories.
func build(w workload, opts acache.Options, ops []op, scratch string) (*live, error) {
	l := &live{w: w, names: w.names(), out: &sink{}}
	start := time.Now()
	switch w.kind {
	case serialEngine:
		e, err := w.query().Build(opts)
		if err != nil {
			return nil, err
		}
		l.serial = e
		l.closers = append(l.closers, e.Close)
		e.OnResult(l.out.add)
		l.feed(ops[:w.warmup])
	case shardedEngine:
		e, err := w.query().BuildSharded(opts, acache.ShardOptions{Shards: w.shards})
		if err != nil {
			return nil, err
		}
		l.sharded = e
		l.closers = append(l.closers, e.Close)
		e.OnResult(l.out.add)
		l.feed(ops[:w.warmup])
	case durableEngine:
		if err := l.buildDurable(opts, ops, scratch); err != nil {
			l.close()
			return nil, err
		}
	}
	l.setup = time.Since(start)
	*l.out = sink{}
	return l, nil
}

// buildDurable runs the durable set-up: cold BuildDurable, warm-up,
// SaveCheckpoint, logged appends, SyncWAL, crash (the synced checkpoint and
// WAL are copied aside and the first engine is discarded), warm BuildDurable
// on the copy. The recovered engine is the one that gets measured.
func (l *live) buildDurable(opts acache.Options, ops []op, scratch string) error {
	w := l.w
	first, err := os.MkdirTemp(scratch, "d")
	if err != nil {
		return err
	}
	l.closers = append(l.closers, func() { os.RemoveAll(first) })
	opts.Tier = acache.TierOptions{Dir: first}
	e, warm, err := w.query().BuildDurable(opts)
	if err != nil {
		return err
	}
	if warm {
		e.Close()
		return fmt.Errorf("fresh directory reported a warm start")
	}
	l.serial = e
	l.feed(ops[:w.warmup])
	l.checkpointAt = time.Now()
	if err := e.SaveCheckpoint(); err != nil {
		e.Close()
		return err
	}
	l.checkpoint = time.Since(l.checkpointAt)
	l.feed(ops[w.warmup:w.prefix()])
	if err := e.SyncWAL(); err != nil {
		e.Close()
		return err
	}
	second, err := os.MkdirTemp(scratch, "d")
	if err != nil {
		e.Close()
		return err
	}
	l.closers = append(l.closers, func() { os.RemoveAll(second) })
	if l.walBytes, err = copyFlat(first, second); err != nil {
		e.Close()
		return err
	}
	e.Close() // discards the first directory's durable state
	l.serial = nil

	opts.Tier.Dir = second
	l.recoverAt = time.Now()
	e, warm, err = w.query().BuildDurable(opts)
	if err != nil {
		return err
	}
	l.recover = time.Since(l.recoverAt)
	l.serial = e
	l.closers = append(l.closers, e.Close)
	if !warm {
		return fmt.Errorf("restart over a checkpoint and WAL reported a cold start")
	}
	l.replayed = e.Stats().WALRecordsReplayed
	if want := uint64(w.logged); l.replayed != want {
		return fmt.Errorf("warm restart replayed %d WAL records, want %d", l.replayed, want)
	}
	e.OnResult(l.out.add)
	return nil
}

// copyFlat copies the regular files of src into dst — what survives a kill
// after SyncWAL — and returns the bytes of the write-ahead log among them.
func copyFlat(src, dst string) (walBytes int64, err error) {
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return 0, err
		}
		if ent.Name() == "wal.log" {
			walBytes = int64(len(b))
		}
	}
	return walBytes, nil
}

// batch is one AppendBatch call of the sharded throughput pass, built before
// the clock starts.
type batch struct {
	rel  string
	rows [][]int64
	end  int // index one past the batch's last op
}

func (w workload) batches(ops []op) []batch {
	names := w.names()
	var out []batch
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && ops[j].idx == ops[i].idx && j-i < w.runLen {
			j++
		}
		b := batch{rel: names[ops[i].idx], end: j, rows: make([][]int64, 0, j-i)}
		for k := i; k < j; k++ {
			b.rows = append(b.rows, ops[k].vals[:ops[k].n])
		}
		out = append(out, b)
		i = j
	}
	return out
}

// input is the measured part of a rep, prepared once per run.
type input struct {
	ops     []op
	batches []batch // sharded throughput pass only
	ref     *reference
}

// throughput runs the measure stream with one clock read per segment
// boundary and stores each segment's wall time in segs. It returns the
// number of failed requests (delta count differing from the reference, or a
// failed SyncWAL).
func (l *live) throughput(s *input, segs []int64) (failed int) {
	if l.sharded != nil {
		l.throughputSharded(s, segs)
		return 0
	}
	e, names, gap, counts := l.serial, l.names, l.w.syncGap, s.ref.counts
	ops := s.ops[:l.w.measure]
	seglen := l.w.segment()
	t0 := time.Now()
	for seg := range segs {
		lo := seg * seglen
		hi := min(lo+seglen, len(ops))
		for i := lo; i < hi; i++ {
			o := &ops[i]
			n := e.Append(names[o.idx], o.vals[:o.n]...)
			if gap > 0 && (i+1)%gap == 0 && e.SyncWAL() != nil {
				failed++
			}
			if int32(n) != counts[i] {
				failed++
			}
		}
		t1 := time.Now()
		segs[seg] = int64(t1.Sub(t0))
		t0 = t1
	}
	return failed
}

// throughputSharded has nothing to compare per request (AppendBatch returns
// nothing); the caller checks totals and checksum after the last Flush.
func (l *live) throughputSharded(s *input, segs []int64) {
	e := l.sharded
	seglen := l.w.segment()
	next := seglen
	seg := 0
	t0 := time.Now()
	for _, b := range s.batches {
		e.AppendBatch(b.rel, b.rows)
		if b.end >= next || b.end == l.w.measure {
			e.Flush()
			t1 := time.Now()
			segs[seg] = int64(t1.Sub(t0))
			t0 = t1
			seg++
			next += seglen
		}
	}
}

// latency runs the first w.latency requests one by one with one clock read
// per request (the end of request i is the start of request i+1) and lowers
// best[i] to the request's duration when it beat every earlier rep.
func (l *live) latency(s *input, best []int64) (failed int) {
	names, counts := l.names, s.ref.counts
	ops := s.ops[:l.w.latency]
	if l.sharded != nil {
		e, out := l.sharded, l.out
		t0 := time.Now()
		for i := range ops {
			o := &ops[i]
			before := out.count
			e.Append(names[o.idx], o.vals[:o.n]...)
			e.Flush()
			t1 := time.Now()
			if d := int64(t1.Sub(t0)); d < best[i] {
				best[i] = d
			}
			t0 = t1
			if int32(out.count-before) != counts[i] {
				failed++
			}
		}
		return failed
	}
	e, gap := l.serial, l.w.syncGap
	t0 := time.Now()
	for i := range ops {
		o := &ops[i]
		n := e.Append(names[o.idx], o.vals[:o.n]...)
		if gap > 0 && (i+1)%gap == 0 && e.SyncWAL() != nil {
			failed++
		}
		t1 := time.Now()
		if d := int64(t1.Sub(t0)); d < best[i] {
			best[i] = d
		}
		t0 = t1
		if int32(n) != counts[i] {
			failed++
		}
	}
	return failed
}

// stats reads the engine's exported counters (flushing a sharded engine).
func (l *live) stats() acache.Stats {
	if l.sharded != nil {
		return l.sharded.Stats()
	}
	return l.serial.Stats()
}

// reference is the expected outcome of the measure stream: per-request
// result-delta counts and the folded sink at the end of the latency prefix
// and of the whole stream. It comes from a twin engine with caching disabled
// and every join indexed — a different plan over the same inputs.
type reference struct {
	counts    []int32
	atLatency sink
	atMeasure sink
}

func computeReference(w workload, ops []op) (*reference, error) {
	q := w.query()
	e, err := q.Build(acache.Options{DisableCaching: true})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	var out sink
	e.OnResult(out.add)
	names := w.names()
	pre := w.prefix()
	for i := range ops[:pre] {
		o := &ops[i]
		e.Append(names[o.idx], o.vals[:o.n]...)
	}
	out = sink{}
	ref := &reference{counts: make([]int32, w.measure)}
	for i := range ref.counts {
		o := &ops[pre+i]
		ref.counts[i] = int32(e.Append(names[o.idx], o.vals[:o.n]...))
		if i+1 == w.latency {
			ref.atLatency = out
		}
	}
	ref.atMeasure = out
	return ref, nil
}

// heapAlloc forces a collection and returns the live heap.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
