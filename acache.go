// Package acache is an adaptive caching engine for continuous multiway join
// queries over update streams, reproducing "Adaptive Caching for Continuous
// Queries" (Babu, Munagala, Widom, Motwani — ICDE 2005).
//
// A continuous n-way equijoin (a windowed stream join, or an incrementally
// maintained join view) is executed as an MJoin — one pipeline per input
// stream — and the engine adaptively splices join-subresult caches into the
// pipelines, covering the whole plan spectrum from stateless MJoins to
// fully materialized XJoins. Cache benefits and costs are estimated online,
// the cache set is re-optimized as stream and system conditions change, and
// memory is divided among caches by priority.
//
// Basic use:
//
//	q := acache.NewQuery().
//		Relation("R", "A").
//		Relation("S", "A", "B").
//		Relation("T", "B").
//		Join("R.A", "S.A").
//		Join("S.B", "T.B")
//	eng, err := q.Build(acache.Options{})
//	...
//	n := eng.Insert("R", 1)        // process an insertion, get result-delta count
//	n = eng.Delete("S", 1, 2)      // process a deletion
//
// For windowed streams, give each relation a window size and use Append:
// the engine emits the expiry delete and the insert in order.
//
// For multi-core scale-out, BuildSharded runs the same query hash-partitioned
// across P worker shards, each an independent adaptive engine; see
// ShardedEngine for the ingress API and ordering contract.
package acache

import (
	"fmt"
	"sort"
	"strings"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/cql"
	"acache/internal/fault"
	"acache/internal/join"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Query declares a continuous multiway equijoin. Construct with NewQuery,
// add relations and join predicates, then Build an Engine.
type Query struct {
	names   []string
	indexOf map[string]int
	schemas []*tuple.Schema
	windows []int    // count-based window sizes; 0 = unbounded
	spans   []int64  // time-based window spans; 0 = not time-windowed
	partBy  []string // partitioning attribute for per-partition windows; "" = none
	preds   []query.Pred
	thetas  []query.ThetaPred
	err     error
}

// NewQuery starts an empty query declaration.
func NewQuery() *Query {
	return &Query{indexOf: make(map[string]int)}
}

// ParseQuery builds a query declaration from a CQL-style statement — the
// continuous query language of the STREAM project this engine reproduces:
//
//	SELECT * FROM R (A) [ROWS 100], S (A, B) [ROWS 100], T (B) [RANGE 60]
//	WHERE R.A = S.A AND S.B = T.B
//
// `[ROWS n]` declares a count-based sliding window (feed with Append),
// `[RANGE n]` a time-based one (feed with AppendAt), and `[UNBOUNDED]` — the
// default — a plain relation (feed with Insert/Delete). Attribute lists may
// be omitted when every attribute appears in the WHERE clause.
func ParseQuery(src string) (*Query, error) {
	st, err := cql.Parse(src)
	if err != nil {
		return nil, err
	}
	q := NewQuery()
	for _, r := range st.Relations {
		switch r.Window {
		case cql.Rows:
			q.WindowedRelation(r.Name, int(r.N), r.Attrs...)
		case cql.Range:
			q.TimeWindowedRelation(r.Name, r.N, r.Attrs...)
		case cql.Partitioned:
			q.PartitionedRelation(r.Name, r.PartitionBy, int(r.N), r.Attrs...)
		default:
			q.Relation(r.Name, r.Attrs...)
		}
	}
	for _, p := range st.Preds {
		q.Join(p.Left.String(), p.Right.String())
	}
	for _, t := range st.Thetas {
		q.Filter(t.Left.String(), t.Op, t.Right.String())
	}
	return q, q.err
}

// Relation adds a relation with the given attribute names and an unbounded
// window (explicit deletes only — the materialized-view regime).
func (q *Query) Relation(name string, attrs ...string) *Query {
	return q.WindowedRelation(name, 0, attrs...)
}

// WindowedRelation adds a relation backed by a count-based sliding window of
// the given size: each Append yields an insert plus, once the window fills,
// the expiring tuple's delete.
func (q *Query) WindowedRelation(name string, window int, attrs ...string) *Query {
	return q.addRelation(name, window, 0, attrs)
}

// PartitionedRelation adds a relation backed by CQL's
// `[PARTITION BY attr ROWS rows]` window: the stream partitions on one
// attribute's value and each partition keeps its own count-based window of
// the rows most recent tuples. Feed it with Append.
func (q *Query) PartitionedRelation(name, partitionBy string, rows int, attrs ...string) *Query {
	if rows <= 0 {
		q.err = fmt.Errorf("acache: relation %q: partition window rows must be positive", name)
		return q
	}
	found := false
	for _, a := range attrs {
		if a == partitionBy {
			found = true
		}
	}
	if !found {
		q.err = fmt.Errorf("acache: relation %q: partition attribute %q not among %v", name, partitionBy, attrs)
		return q
	}
	q.addRelation(name, rows, 0, attrs)
	if q.err == nil {
		q.partBy[len(q.partBy)-1] = partitionBy
	}
	return q
}

// TimeWindowedRelation adds a relation backed by a time-based sliding window
// spanning the given number of time units (CQL's `[RANGE span]`). Feed it
// with AppendAt, which carries the application timestamp; timestamps must be
// non-decreasing across the whole engine.
func (q *Query) TimeWindowedRelation(name string, span int64, attrs ...string) *Query {
	if span <= 0 {
		q.err = fmt.Errorf("acache: relation %q: time window span must be positive", name)
		return q
	}
	return q.addRelation(name, 0, span, attrs)
}

func (q *Query) addRelation(name string, window int, span int64, attrs []string) *Query {
	if q.err != nil {
		return q
	}
	if _, dup := q.indexOf[name]; dup {
		q.err = fmt.Errorf("acache: duplicate relation %q", name)
		return q
	}
	if len(attrs) == 0 { // nothing to join on, and no first value for a window to refer to
		q.err = fmt.Errorf("acache: relation %q has no attributes", name)
		return q
	}
	idx := len(q.names)
	q.indexOf[name] = idx
	q.names = append(q.names, name)
	q.schemas = append(q.schemas, tuple.RelationSchema(idx, attrs...))
	q.windows = append(q.windows, window)
	q.spans = append(q.spans, span)
	q.partBy = append(q.partBy, "")
	return q
}

// Join adds an equijoin predicate between two "Rel.Attr" references.
func (q *Query) Join(left, right string) *Query {
	if q.err != nil {
		return q
	}
	l, err := q.parseRef(left)
	if err != nil {
		q.err = err
		return q
	}
	r, err := q.parseRef(right)
	if err != nil {
		q.err = err
		return q
	}
	q.preds = append(q.preds, query.Pred{Left: l, Right: r})
	return q
}

// Filter adds a residual theta predicate between two "Rel.Attr" references;
// op is one of "<", "<=", ">", ">=", "!=". Theta predicates are evaluated
// as filters during join processing; the equijoin predicates alone must
// still connect all relations. This extends the paper's equijoin-only
// setting (Section 3.1).
func (q *Query) Filter(left, op, right string) *Query {
	if q.err != nil {
		return q
	}
	l, err := q.parseRef(left)
	if err != nil {
		q.err = err
		return q
	}
	r, err := q.parseRef(right)
	if err != nil {
		q.err = err
		return q
	}
	cmp, ok := cmpOps[op]
	if !ok {
		q.err = fmt.Errorf("acache: unknown comparison operator %q (want <, <=, >, >=, !=)", op)
		return q
	}
	q.thetas = append(q.thetas, query.ThetaPred{Left: l, Op: cmp, Right: r})
	return q
}

var cmpOps = map[string]query.CmpOp{
	"<": query.Lt, "<=": query.Le, ">": query.Gt, ">=": query.Ge, "!=": query.Ne,
}

func (q *Query) parseRef(ref string) (tuple.Attr, error) {
	dot := strings.IndexByte(ref, '.')
	if dot <= 0 || dot == len(ref)-1 {
		return tuple.Attr{}, fmt.Errorf("acache: malformed attribute reference %q (want Rel.Attr)", ref)
	}
	rel, attr := ref[:dot], ref[dot+1:]
	idx, ok := q.indexOf[rel]
	if !ok {
		return tuple.Attr{}, fmt.Errorf("acache: unknown relation %q in %q", rel, ref)
	}
	return tuple.Attr{Rel: idx, Name: attr}, nil
}

// Options tune the engine; the zero value uses the paper's defaults:
// adaptive cache selection with globally-consistent caches enabled,
// unlimited cache memory, re-optimization every 10 000 updates.
type Options struct {
	// ReoptInterval is the re-optimization interval I in updates
	// (default 10 000).
	ReoptInterval int
	// MemoryBudget is the bytes available to caches (≤ 0 for unlimited).
	MemoryBudget int
	// DisableCaching runs a plain MJoin.
	DisableCaching bool
	// DisableGlobalCaches restricts candidates to the prefix invariant
	// (Section 4); by default globally-consistent caches (Section 6) are
	// considered with the paper's quota m = 6.
	DisableGlobalCaches bool
	// Seed fixes sampling randomness for reproducible runs.
	Seed int64
	// NoIndex lists "Rel.Attr" references that must not use hash indexes
	// (joins on them fall back to nested-loop scans).
	NoIndex []string
	// BudgetAware integrates the memory budget into cache selection itself
	// rather than the paper's modular select-then-allocate pipeline. Only
	// meaningful with a finite MemoryBudget.
	BudgetAware bool
	// storeProvider and relTokens are injected by Server.Register before it
	// builds a hosted engine: the provider lets equivalent relations attach
	// to the server's shared window stores, and the tokens give cache specs
	// their cross-query identity for pooled demand accounting. Never set by
	// callers — sharing is meaningless without the server's registry.
	storeProvider join.StoreProvider
	relTokens     []string
	// fs is the filesystem seam durability I/O (WAL and checkpoint) goes
	// through; nil uses the real filesystem. Set only by tests, which inject
	// a fault.DiskInjector to exercise disk-failure paths deterministically.
	fs fault.FS
	// Tier names the directory BuildDurable keeps its checkpoint and
	// write-ahead log in. Build and BuildSharded ignore it: every engine
	// holds its state in memory.
	Tier TierOptions
}

// TierOptions holds BuildDurable's directory. The name outlived the cold
// tier it once also configured (DESIGN.md §13).
type TierOptions struct {
	// Dir is the durable engine's directory (engine.ckpt and wal.log).
	Dir string
}

// Engine executes a built query. It is not safe for concurrent use: updates
// are processed strictly in call order, each to completion, matching the
// paper's execution model.
type Engine struct {
	ingress
	core *core.Engine
	dur  *durable // non-nil for durable engines (BuildDurable)
}

// compile validates the query and translates the public Options into the
// core engine's configuration — shared by Build and BuildSharded (where every
// shard gets the same configuration apart from its seed and budget slice).
func (q *Query) compile(opts Options) (*query.Query, core.Config, error) {
	if q.err != nil {
		return nil, core.Config{}, q.err
	}
	iq, err := query.NewWithThetas(q.schemas, q.preds, q.thetas)
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := core.Config{
		ReoptInterval:  opts.ReoptInterval,
		MemoryBudget:   opts.MemoryBudget,
		DisableCaching: opts.DisableCaching,
		BudgetAware:    opts.BudgetAware,
		Seed:           opts.Seed,
		StoreProvider:  opts.storeProvider,
		RelTokens:      opts.relTokens,
	}
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = -1
	}
	if !opts.DisableGlobalCaches {
		cfg.GCQuota = 6
	}
	for _, ref := range opts.NoIndex {
		a, err := q.parseRef(ref)
		if err != nil {
			return nil, core.Config{}, err
		}
		cfg.ScanOnly = append(cfg.ScanOnly, a)
	}
	return iq, cfg, nil
}

// winSig renders relation i's window declaration canonically — part of every
// cross-query sharing identity, because two queries share state over a stream
// only when their windows retain exactly the same tuples.
func (q *Query) winSig(i int) string {
	switch {
	case q.spans[i] > 0:
		return fmt.Sprintf("t%d", q.spans[i])
	case q.partBy[i] != "":
		return fmt.Sprintf("p%d:%s", q.windows[i], q.partBy[i])
	default:
		return fmt.Sprintf("s%d", q.windows[i])
	}
}

// storeToken identifies relation i for physical window-store sharing: stream
// name, full attribute list, and window. Two queries may attach to one store
// only when all three agree — the store's schema and slab layout are shared
// verbatim, so attribute renaming is NOT allowed here (unlike relToken).
func (q *Query) storeToken(i int) string {
	var b strings.Builder
	b.WriteString(q.names[i])
	b.WriteByte('|')
	for _, a := range q.schemas[i].Cols() {
		b.WriteString(a.Name)
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(q.winSig(i))
	return b.String()
}

// relToken identifies relation i for cross-query cache accounting: stream
// name, arity, and window — no attribute names, because cache contents are
// positional and survive renaming (see planner.CrossID).
func (q *Query) relToken(i int) string {
	return fmt.Sprintf("%s|%d|%s", q.names[i], q.schemas[i].Len(), q.winSig(i))
}

// relTokens renders every relation's relToken, for Options.relTokens.
func (q *Query) allRelTokens() []string {
	out := make([]string, len(q.names))
	for i := range q.names {
		out[i] = q.relToken(i)
	}
	return out
}

// Build validates the query and constructs an Engine.
func (q *Query) Build(opts Options) (*Engine, error) {
	iq, cfg, err := q.compile(opts)
	if err != nil {
		return nil, err
	}
	en, err := core.NewEngine(iq, nil, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{ingress: newIngress(q), core: en}, nil
}

func (q *Query) relIndex(name string) int {
	idx, ok := q.indexOf[name]
	if !ok {
		panic(fmt.Sprintf("acache: unknown relation %q", name))
	}
	return idx
}

func (q *Query) checkArity(rel int, values []int64) {
	if want := q.schemas[rel].Len(); len(values) != want {
		panic(fmt.Sprintf("acache: relation %q has %d attributes, got %d values",
			q.names[rel], want, len(values)))
	}
}

// Insert processes an insertion into the named relation and returns the
// number of join-result updates emitted.
func (e *Engine) Insert(rel string, values ...int64) int {
	return e.apply(stream.Insert, walInsert, rel, values)
}

// Delete processes a deletion from the named relation and returns the
// number of join-result updates emitted.
func (e *Engine) Delete(rel string, values ...int64) int {
	return e.apply(stream.Delete, walDelete, rel, values)
}

func (e *Engine) apply(op stream.Op, kind byte, rel string, values []int64) int {
	idx := e.q.relIndex(rel)
	n := e.feed(e.update(op, idx, values))
	e.logOp(kind, idx, 0, values)
	return n
}

// feed pushes an ingress slice through the core engine update by update and
// drives the hosting server's rebalance cadence, if any.
func (e *Engine) feed(ups []stream.Update) int {
	total := 0
	for _, u := range ups {
		total += e.core.Process(u)
		if e.server != nil {
			e.server.tick()
		}
	}
	return total
}

// Append pushes one tuple of a count-windowed relation's append-only
// stream, processing the expiry delete (if the window was full) and then
// the insert. It returns the total join-result updates emitted.
//
// When the engine is hosted by a Server and shares this relation's window
// store with other queries, drive the stream through Server.Append instead:
// it interleaves the expiry delete and the insert across all sharers in the
// lockstep order the shared store requires.
func (e *Engine) Append(rel string, values ...int64) int {
	idx := e.q.relIndex(rel)
	n := e.feed(e.appendRow(idx, values))
	e.logOp(walAppend, idx, 0, values)
	return n
}

// AppendBatch pushes a batch of tuples of a count-windowed relation's
// append-only stream and processes the resulting window updates through the
// engine's vectorized batch path. The window emits the expiry deletes the
// batch forces out first and then the inserts (grouped schedule, see
// stream.SlidingWindow.AppendBatchInto), so the executor sees two long
// same-operation runs it can vectorize instead of alternating singletons.
// It returns the total join-result updates emitted.
func (e *Engine) AppendBatch(rel string, rows [][]int64) int {
	idx := e.q.relIndex(rel)
	ups := e.appendRows(idx, rows)
	total := e.core.ProcessBatch(ups)
	if e.server != nil {
		for range ups {
			e.server.tick()
		}
	}
	if e.dur != nil {
		e.dur.logBatch(idx, rows)
	}
	return total
}

// AppendAt pushes one tuple of a time-windowed relation's stream at
// application time ts. Time is global: before the insert, every
// time-windowed relation expires its tuples older than its span relative to
// ts, and those deletes are processed first (oldest first, per relation in
// declaration order). Timestamps must be non-decreasing across the engine.
// It returns the total join-result updates emitted.
func (e *Engine) AppendAt(rel string, ts int64, values ...int64) int {
	idx := e.q.relIndex(rel)
	n := e.feed(e.appendAt(idx, ts, values))
	e.logOp(walAppendAt, idx, ts, values)
	return n
}

// AdvanceTime moves the global clock to ts without inserting anything,
// expiring every time window's old tuples and processing their deletes. It
// returns the join-result updates emitted by the retractions.
func (e *Engine) AdvanceTime(ts int64) int {
	n := e.feed(e.advance(ts))
	e.logOp(walAdvance, 0, ts, nil)
	return n
}

// Stats is a snapshot of the engine's state and counters.
type Stats struct {
	// Updates is the number of updates processed.
	Updates uint64
	// Outputs is the number of join-result updates emitted.
	Outputs uint64
	// WorkSeconds is the simulated processing time consumed so far.
	WorkSeconds float64
	// UsedCaches describes the caches currently spliced into pipelines.
	UsedCaches []string
	// Reopts and SkippedReopts count selection runs and p-threshold skips.
	Reopts, SkippedReopts int

	// Adaptivity-overhead telemetry (summed across shards for sharded
	// engines; process-local, not persisted by durable checkpoints).

	// ReoptNanos is the wall-clock time spent in the re-optimization
	// machinery (change monitoring, candidate rescoring, selection, and
	// plan application) — the adaptivity work that is not probe execution
	// or cache maintenance.
	ReoptNanos int64
	// SampledUpdates counts the updates on which the profiler drew a
	// profiling decision. Only an adaptive engine samples: every update
	// while caching runs, none while the overload ladder pauses caching, and
	// none with DisableCaching, which builds no profiler (DESIGN.md §23).
	SampledUpdates uint64
	// CandidateRescores counts candidate cost-model evaluations across all
	// re-optimizations.
	CandidateRescores uint64
	// CacheMemoryBytes is the total bytes held by used caches.
	CacheMemoryBytes int
	// Deprecated: the relation indexes no longer carry fingerprint filters
	// (DESIGN.md §20); always zero, kept for the frozen benchmark surface.
	FilterBytes int
	// Deprecated: always zero, kept for the frozen benchmark surface.
	FilteredProbes uint64
	// Deprecated: always zero, kept for the frozen benchmark surface.
	FilterFalsePositives uint64

	// WindowBytes is the tuple footprint of the relation window stores
	// (shared stores counted at full size in every sharer's Stats; see
	// SharedBytesSaved for the server-scope discount).
	WindowBytes int

	// Deprecated: the cold tier was removed; always zero.
	TierHotBytes int
	// Deprecated: the cold tier was removed; always zero.
	TierColdBytes int
	// Deprecated: the cold tier was removed; always zero.
	TierPromotions uint64
	// Deprecated: the cold tier was removed; always zero.
	TierDemotions uint64

	// Durability telemetry (zero for non-durable engines).

	// WALErrors counts durability I/O failures (failed WAL writes, flushes,
	// and syncs); the first one poisons the WAL — see SyncWAL.
	WALErrors uint64
	// WALRecordsReplayed is how many WAL records BuildDurable applied at
	// startup; WALBytesIgnored is how many WAL bytes it did not apply (a
	// torn tail, or a whole stale-epoch log); WALReplayReason says how
	// replay ended: "" (not durable), "empty", "clean", "torn-tail",
	// "torn-header", or "stale-epoch".
	WALRecordsReplayed uint64
	WALBytesIgnored    uint64
	WALReplayReason    string

	// Cross-query sharing telemetry, populated for engines hosted by a
	// Server (see Server.Register); zero elsewhere.

	// SharedStores is the number of this engine's relations attached to a
	// server-scope shared window store.
	SharedStores int
	// SharedCaches is the number of cache sharing groups whose memory
	// demand the server pools across ≥ 2 registered queries.
	SharedCaches int
	// SharerCount is the largest number of queries (this one included)
	// attached to any one of this engine's shared window stores.
	SharerCount int
	// SharedBytesSaved is the window-store memory this engine avoids
	// duplicating by attaching to stores another registered query already
	// carries (the first registrant's Stats report the bytes;
	// later sharers report the saving).
	SharedBytesSaved int

	// Resilience telemetry, populated by sharded engines (ShardedEngine
	// with ShardOptions.Resilience set); zero elsewhere.

	// Shedded is the number of input tuples dropped under overload: those
	// the degradation ladder shed at the window ingress plus the input of
	// quarantined shards. Rows refused by TryAppend or an expired
	// AppendContext are not counted; they never reached the engine. Results
	// remain the exact answer over the non-shed subset of the input.
	Shedded uint64
	// SheddedByRelation breaks Shedded down by relation name (nil when
	// nothing was shed).
	SheddedByRelation map[string]uint64
	// CallbackPanics counts OnResult callback panics that were isolated.
	CallbackPanics uint64
	// Recoveries counts shard workers rebuilt from checkpoint after a panic.
	Recoveries int
	// QueueDepth is the updates buffered between ingress and shards.
	QueueDepth int
	// AdmissionWaitSeconds is the total time the ingress spent waiting for
	// room in full shard mailboxes (backpressure, AppendContext deadlines).
	AdmissionWaitSeconds float64
	// DegradeLevel is the degradation-ladder rung in effect: 0 normal,
	// 1 caches paused, 2 caches paused + input shedding.
	DegradeLevel int
}

// statsFromSnapshot renders the Stats fields a core snapshot backs — the one
// conversion behind Engine.Stats, ShardedEngine.Stats and ShardStats. Updates
// is the engine's processed-update count; the aggregate views overwrite it
// with their ingress count.
func statsFromSnapshot(snap core.Snapshot) Stats {
	return Stats{
		Updates:          uint64(snap.Updates),
		Outputs:          snap.Outputs,
		WorkSeconds:      cost.Seconds(snap.Work),
		Reopts:           snap.Reopts,
		SkippedReopts:    snap.SkippedReopts,
		CacheMemoryBytes: snap.CacheMemoryBytes,

		ReoptNanos:        snap.ReoptNanos,
		SampledUpdates:    snap.SampledUpdates,
		CandidateRescores: snap.CandidateRescores,

		WindowBytes:  snap.WindowBytes,
		SharedStores: snap.SharedStores,
	}
}

// Stats returns a snapshot of counters and the current plan.
func (e *Engine) Stats() Stats {
	s := statsFromSnapshot(e.core.Snapshot())
	s.Updates = e.seq
	if d := e.dur; d != nil {
		s.WALErrors = d.walErrs
		s.WALRecordsReplayed = d.recsReplayed
		s.WALBytesIgnored = d.bytesIgnored
		s.WALReplayReason = d.replayReason
	}
	s.UsedCaches = e.q.usedCaches(e.core)
	return s
}

// usedCaches renders one core engine's cache placements, sorted.
func (q *Query) usedCaches(en *core.Engine) []string {
	var out []string
	for _, spec := range en.UsedCaches() {
		out = append(out, q.describeSpec(spec))
	}
	sort.Strings(out)
	return out
}

// describeSpec renders a cache spec with the query's relation names.
func (q *Query) describeSpec(spec *planner.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Δ%s: cache(", q.names[spec.Pipeline])
	for i, r := range spec.Segment {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		b.WriteString(q.names[r])
	}
	switch {
	case spec.SelfMaint:
		b.WriteString(", self-maintained")
	case spec.GC:
		b.WriteString(" ⋉")
		for _, r := range spec.Y {
			b.WriteString(" " + q.names[r])
		}
	}
	b.WriteString(")")
	return b.String()
}

// Close discards a durable engine's on-disk state (checkpoint and WAL) — use
// CloseKeep to preserve it for a warm restart. On any other engine it does
// nothing. Idempotent.
func (e *Engine) Close() {
	if e.dur != nil {
		e.dur.discard()
		e.dur = nil
	}
}

// SetMemoryBudget changes the cache memory budget at run time; the engine
// re-divides it among caches by priority immediately.
func (e *Engine) SetMemoryBudget(bytes int) {
	if bytes <= 0 {
		bytes = -1
	}
	e.core.SetMemoryBudget(bytes)
}

// WindowLen returns the current tuple count of the named relation's window.
func (e *Engine) WindowLen(rel string) int {
	return e.core.Exec().Store(e.q.relIndex(rel)).Len()
}

// RelationNames returns the declared relation names in declaration order
// and each relation's attribute count — what a generic driver needs to feed
// the engine.
func (q *Query) RelationNames() (names []string, arities []int) {
	for i, n := range q.names {
		names = append(names, n)
		arities = append(arities, q.schemas[i].Len())
	}
	return names, arities
}

// OnResult registers a callback receiving every join-result delta as a flat
// row (see ResultColumns for the column labels), with insert = true for
// additions and false for retractions. The row is the engine's buffer: it is
// valid only for the duration of the callback and the next result overwrites
// it, so a callback that keeps a row copies it. Callbacks run synchronously
// inside update processing and must not call back into the engine.
func (e *Engine) OnResult(f func(insert bool, row []int64)) {
	e.core.OnResult(f)
}

// ResultColumns returns the labels of result-row columns, in the order
// OnResult delivers them: relations in declaration order, each relation's
// attributes in declaration order, as "Rel.Attr".
func (q *Query) ResultColumns() []string {
	var out []string
	for i, name := range q.names {
		for _, a := range q.schemas[i].Cols() {
			out = append(out, name+"."+a.Name)
		}
	}
	return out
}

// Explain renders the adaptive optimizer's view: every candidate cache with
// its state (used / profiled / unused) and latest benefit, maintenance
// cost, and miss-probability estimates in unit-time terms — EXPLAIN for a
// continuously optimized query.
func (e *Engine) Explain() string { return e.q.explain(e.core) }

// DescribePlan renders the engine's current physical plan — one line per
// pipeline with its join order, then one line per cache placement with its
// mode, occupancy, and hit rate.
func (e *Engine) DescribePlan() string { return e.q.describePlan(e.core) }

// explain renders one core engine's candidates — Explain's text, and each
// section of a sharded engine's.
func (q *Query) explain(en *core.Engine) string {
	var b strings.Builder
	for _, c := range en.Candidates() {
		fmt.Fprintf(&b, "%-9s %s  benefit=%.4f cost=%.4f miss=%.2f",
			c.State.String(), q.describeSpec(c.Spec), c.Benefit, c.Cost, c.MissProb)
		if !c.Ready {
			b.WriteString("  (estimating)")
		}
		if c.Demotions > 0 {
			fmt.Fprintf(&b, "  demoted×%d", c.Demotions)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// describePlan renders one core engine's physical plan — DescribePlan's
// text, and each section of a sharded engine's.
func (q *Query) describePlan(en *core.Engine) string {
	plan := en.Plan()
	var b strings.Builder
	for i, pipe := range plan.Pipelines {
		fmt.Fprintf(&b, "Δ%s:", q.names[i])
		for _, r := range pipe {
			fmt.Fprintf(&b, " ⋈ %s", q.names[r])
		}
		b.WriteByte('\n')
	}
	for _, c := range plan.Caches {
		mode := "prefix"
		switch {
		case c.SelfMnt:
			mode = "self-maintained"
		case c.Reduced:
			mode = "reduced"
		}
		shared := ""
		if c.Shared {
			shared = ", shared"
		}
		fmt.Fprintf(&b, "  cache %s [%s%s]: %d entries, %.1f KB, %.0f%% hits\n",
			q.describeSpec(c.Spec), mode, shared, c.Entries, float64(c.Bytes)/1024, 100*c.HitRate)
	}
	return b.String()
}
