package acache

import (
	"fmt"

	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/join"
	"acache/internal/memory"
	"acache/internal/relation"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// Server hosts multiple continuous queries and divides a global cache-memory
// budget among them — the DSMS setting the paper situates A-Caching in:
// "the memory in a DSMS must be partitioned among all active continuous
// queries" (Section 5). Each registered query runs its own adaptive engine;
// Rebalance applies the Section 5 greedy priority rule *across* queries,
// granting memory where the aggregate net benefit per byte is highest.
//
// Like the engines it hosts, a Server is not safe for concurrent use: the
// caller serializes updates and rebalances. Sharded engines run their shards
// on worker goroutines, but their ingress is part of the same single-caller
// contract — the server quiesces them (Flush) before reading their demand.
type Server struct {
	mgr     *memory.Manager
	queries map[string]hosted // by registered name
	order   []string
	// RebalanceEvery is how many processed updates pass between automatic
	// rebalances (0 disables automatic rebalancing; call Rebalance
	// directly). Default 10 000.
	RebalanceEvery int
	sinceRebalance int
	// Rebalance's request and grant buffers, reused per call so the
	// periodic rebalance path does not churn a slice and map every time.
	reqs   []memory.Request
	grants map[string]int

	// Cross-query sharing registry (see DESIGN.md §12). shares holds one
	// entry per physically shared window store, keyed by the full sharing
	// identity (stream + attributes + window + index signature); attached
	// lists, per registered query, the entries its engine is a sharer of.
	// Both are maintained by Register/Deregister only.
	shares   map[string]*sharedStoreEntry
	attached map[string][]*sharedStoreEntry
	// Pooled-rebalance scratch, reused per call: cross-query cache groups
	// keyed by planner.CrossID, and the per-query free top-up for pooled
	// bytes another query's request already carries.
	crossGroups map[string]pooledGroup
	topUps      map[string]int
	// fanOut's scratch, reused per call.
	feedQueries []hosted
	feedUps     [][]stream.Update
}

// hosted is a registered query's engine, serial or sharded, as the server
// drives it. Both share one ingress (front). What differs is where updates go
// (feed) and how memory and health are read and granted: a sharded engine
// quiesces its shards first and splits grants evenly across them.
type hosted interface {
	front() *ingress
	// appendRow is the ingress's, behind a sharded engine's ladder.
	appendRow(rel int, values []int64) []stream.Update
	// feed processes (serial) or routes (sharded) an ingress slice and
	// returns the join-result updates it emitted (0 when asynchronous).
	feed(ups []stream.Update) int
	shards() int
	// memoryDemandDetail returns the per-group demand detail (quiescing a
	// sharded engine's shards). The slice aliases engine scratch: it is
	// valid until the engine's next call.
	memoryDemandDetail() []core.GroupDemand
	applyGrant(bytes int)
	budgetBytes() int
	Stats() Stats
	health() []ShardHealth
	// release detaches a deregistered engine: a serial one from its shared
	// window stores, a sharded one by stopping its shards.
	release()
}

func (e *Engine) shards() int { return 1 }

func (e *Engine) memoryDemandDetail() []core.GroupDemand {
	return e.core.MemoryDemandDetail()
}

func (e *Engine) applyGrant(bytes int) { e.core.SetMemoryBudget(bytes) }

func (e *Engine) budgetBytes() int { return e.core.MemoryBudgetBytes() }

func (e *Engine) health() []ShardHealth { return nil }

func (e *Engine) release() { e.core.Exec().ReleaseSharedStores() }

// sharedStoreEntry is one refcounted shared window store: the queries in
// sharers feed it in lockstep through the replay protocol (relation.Store's
// shared mode), each charging its own tariffs. sharers is attach order; the
// first live sharer "carries" the store's bytes in telemetry, later sharers
// report them as saved.
type sharedStoreEntry struct {
	key     string
	store   *relation.Store
	sharers []string
}

// pooledGroup aggregates one cross-query cache sharing group during a
// rebalance: the carrier (first registrant using it) asks for the group's
// bytes once with the sharers' summed net benefit; other sharers get the
// bytes as a free top-up on their grant.
type pooledGroup struct {
	carrier string
	bytes   int
	net     float64
	users   int
}

// NewServer creates a server with the given global cache-memory budget in
// bytes (≤ 0 for unlimited).
func NewServer(memoryBudget int) *Server {
	if memoryBudget <= 0 {
		memoryBudget = -1
	}
	return &Server{
		mgr:            memory.NewManager(memoryBudget),
		queries:        make(map[string]hosted),
		shares:         make(map[string]*sharedStoreEntry),
		attached:       make(map[string][]*sharedStoreEntry),
		grants:         make(map[string]int),
		crossGroups:    make(map[string]pooledGroup),
		topUps:         make(map[string]int),
		RebalanceEvery: 10_000,
	}
}

// Register builds the query and adds its engine under the given name. The
// engine starts with no cache memory until the first rebalance (or with
// unlimited memory when the server's budget is unlimited).
//
// Registration is where cross-query sharing happens: relations declaring the
// same stream, attributes, and window as an already registered query attach
// to that query's window store instead of duplicating it (when the index
// needs match too, and the store hasn't ingested anything yet), and cache
// sharing groups equivalent across queries pool their memory demand in
// Rebalance. Results, window contents, and cost totals stay
// bit-identical to unshared engines; sharers must then be fed in lockstep —
// every sharer processes update k of a shared stream before any processes
// k+1, which is the natural order when one caller fans an update out to all
// registered queries.
func (s *Server) Register(name string, q *Query, opts Options) (*Engine, error) {
	if err := s.prepare(name, q, &opts, 1); err != nil {
		return nil, err
	}
	var handed []providerGrant
	opts.storeProvider = s.shareProvider(q, &handed)
	eng, err := q.Build(opts)
	if err != nil {
		// Build cannot fail after the store provider has been consulted
		// (every error fires during validation, before the executor is
		// built); entries created for this registration are still unwound
		// defensively.
		for _, g := range handed {
			if g.created {
				delete(s.shares, g.ent.key)
			}
		}
		return nil, err
	}
	for _, g := range handed {
		g.ent.sharers = append(g.ent.sharers, name)
		s.attached[name] = append(s.attached[name], g.ent)
	}
	s.host(name, eng)
	return eng, nil
}

// prepare checks that name is free and readies opts for a hosted build: a
// minimal start budget of a page per shard (Rebalance grants real budgets by
// priority) and the relation tokens that give cache specs their cross-query
// identity for pooled demand accounting.
func (s *Server) prepare(name string, q *Query, opts *Options, shards int) error {
	if _, dup := s.queries[name]; dup {
		return fmt.Errorf("acache: query %q already registered", name)
	}
	if s.mgr.Budget() >= 0 {
		opts.MemoryBudget = memory.PageBytes * max(shards, 1)
	}
	opts.relTokens = q.allRelTokens()
	return nil
}

// host adds a built engine to the registry and rebalances.
func (s *Server) host(name string, h hosted) {
	h.front().server = s
	s.queries[name] = h
	s.order = append(s.order, name)
	s.Rebalance()
}

// providerGrant records one store the share provider handed to a building
// engine, so Register can finish (or unwind) the registry bookkeeping once
// the build's outcome is known.
type providerGrant struct {
	ent     *sharedStoreEntry
	created bool
}

// shareProvider returns the join.StoreProvider consulted for each of q's
// relations while its engine is built. It hands out a registry store when
// the full sharing identity matches — stream name, attribute names, window
// and index signature — and the store is still empty (a warm
// store's ring order cannot be reconstructed for a late joiner, so late
// registrations fall back to private stores). The first query with a given
// identity creates the entry; it shares through the same replay protocol as
// every later sharer.
func (s *Server) shareProvider(q *Query, handed *[]providerGrant) join.StoreProvider {
	return func(rel int, schema *tuple.Schema, meter *cost.Meter, indexSig string) *relation.Store {
		key := fmt.Sprintf("%s|idx=%s", q.storeToken(rel), indexSig)
		ent, ok := s.shares[key]
		created := false
		if !ok {
			ent = &sharedStoreEntry{key: key, store: relation.NewStore(rel, schema, meter)}
			s.shares[key] = ent
			created = true
		} else if ent.store.Len() != 0 || ent.store.SharedSeq() != 0 {
			return nil
		}
		*handed = append(*handed, providerGrant{ent: ent, created: created})
		return ent.store
	}
}

// RegisterSharded builds the query as a hash-partitioned sharded engine and
// adds it under the given name. The server treats the whole sharded engine
// as one query for budgeting: Rebalance grants it one budget, which the
// engine divides evenly across its shards.
func (s *Server) RegisterSharded(name string, q *Query, opts Options, sopts ShardOptions) (*ShardedEngine, error) {
	// Sharded engines never share stores physically (shards run on worker
	// goroutines; lockstep across engines is impossible), but their caches
	// participate in pooled demand accounting per shard — BuildSharded
	// suffixes each shard's tokens with its slice of the partition plan.
	if err := s.prepare(name, q, &opts, sopts.Shards); err != nil {
		return nil, err
	}
	eng, err := q.BuildSharded(opts, sopts)
	if err != nil {
		return nil, err
	}
	s.host(name, eng)
	return eng, nil
}

// Deregister removes a query's engine, returning its memory to the pool. A
// sharded engine is closed (its shard goroutines stop). A query attached to
// shared window stores detaches without disturbing the other sharers — its
// replay cursor is dropped and the store's pending log trimmed; the last
// sharer's departure removes the store from the registry entirely, releasing
// its memory.
//
// The engine is the caller's again: it no longer drives the server's
// rebalance cadence. One that was attached to shared window stores must not
// be fed afterwards — its replay cursor is gone.
func (s *Server) Deregister(name string) {
	h, ok := s.queries[name]
	if !ok {
		return
	}
	h.release()
	h.front().server = nil
	for _, ent := range s.attached[name] {
		for i, n := range ent.sharers {
			if n == name {
				ent.sharers = append(ent.sharers[:i:i], ent.sharers[i+1:]...)
				break
			}
		}
		if len(ent.sharers) == 0 {
			delete(s.shares, ent.key)
		}
	}
	delete(s.attached, name)
	delete(s.queries, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
	s.Rebalance()
}

// Engine returns the named query's serial engine, or nil (sharded queries
// are reached through Sharded).
func (s *Server) Engine(name string) *Engine {
	e, _ := s.queries[name].(*Engine)
	return e
}

// Sharded returns the named query's sharded engine, or nil.
func (s *Server) Sharded(name string) *ShardedEngine {
	e, _ := s.queries[name].(*ShardedEngine)
	return e
}

// Queries returns the registered query names in registration order.
func (s *Server) Queries() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Rebalance re-divides the global budget across the registered queries by
// the Section 5 priority rule: each query asks for its used caches' memory
// demand and is ranked by aggregate net benefit per byte; grants are made
// greedily in priority order, iterating registered names in registration
// order so grant order is reproducible across runs. With an unlimited budget
// every query gets unlimited memory.
//
// Cache sharing groups equivalent across queries (same planner.CrossID) are
// pooled: the first registrant using a group carries its bytes in one
// request, with every sharer's net benefit folded in — the greedy selector
// sees the aggregate benefit and charges the budget once — and the other
// sharers receive the group's bytes as a free top-up on their grant, so a
// pooled group never starves a later sharer's copy.
func (s *Server) Rebalance() {
	s.sinceRebalance = 0
	if s.mgr.Budget() < 0 {
		for _, name := range s.order {
			s.queries[name].applyGrant(-1)
		}
		return
	}
	s.poolGroups()
	clear(s.topUps)
	s.reqs = s.reqs[:0]
	for _, name := range s.order {
		bytes, net := 0, 0.0
		for _, g := range s.queries[name].memoryDemandDetail() {
			if g.CrossID == "" {
				bytes += g.Bytes
				net += g.Net
				continue
			}
			pool := s.crossGroups[g.CrossID]
			if pool.carrier == name {
				bytes += pool.bytes
				net += pool.net
			} else {
				s.topUps[name] += g.Bytes
			}
		}
		bytes = max(bytes, memory.PageBytes*s.queries[name].shards())
		s.reqs = append(s.reqs, memory.Request{
			ID:       name,
			Priority: net / float64(bytes),
			Bytes:    bytes,
		})
	}
	s.mgr.AllocateInto(s.grants, s.reqs)
	for _, name := range s.order {
		grant := s.grants[name]
		if grant >= 0 {
			grant += s.topUps[name]
		}
		// A sharded engine splits its grant evenly across its shards; each
		// shard re-divides its slice among its caches by the Section 5
		// priority rule, so the hierarchy is server → query → shard → cache.
		// A degraded engine defers the grant until its ladder steps back
		// down (see ShardedEngine.applyGrant).
		s.queries[name].applyGrant(grant)
	}
}

// poolGroups rebuilds the cross-query cache-group aggregation from every
// registered query's current demand detail, in registration order (the first
// registrant using a group becomes its carrier).
func (s *Server) poolGroups() {
	clear(s.crossGroups)
	for _, name := range s.order {
		for _, g := range s.queries[name].memoryDemandDetail() {
			if g.CrossID == "" {
				continue
			}
			pool, ok := s.crossGroups[g.CrossID]
			if !ok {
				s.crossGroups[g.CrossID] = pooledGroup{carrier: name, bytes: g.Bytes, net: g.Net, users: 1}
				continue
			}
			pool.users++
			pool.net += g.Net
			if g.Bytes > pool.bytes {
				pool.bytes = g.Bytes
			}
			s.crossGroups[g.CrossID] = pool
		}
	}
}

// SetBudget changes the global budget and rebalances immediately.
func (s *Server) SetBudget(bytes int) {
	if bytes <= 0 {
		bytes = -1
	}
	s.mgr.SetBudget(bytes)
	s.Rebalance()
}

// Budgets returns each query's currently granted cache-memory budget in
// bytes (−1 = unlimited), keyed by query name. A sharded query reports the
// sum of its shards' budgets.
func (s *Server) Budgets() map[string]int {
	out := make(map[string]int, len(s.order))
	for _, name := range s.order {
		out[name] = s.queries[name].budgetBytes()
	}
	return out
}

// Stats aggregates per-query statistics, keyed by query name and decorated
// with the server's cross-query sharing view: SharerCount and
// SharedBytesSaved from the window-store registry, SharedCaches from the
// pooled demand groups. Iteration follows registration order, so repeated
// calls observe engines in a reproducible sequence.
func (s *Server) Stats() map[string]Stats {
	s.poolGroups()
	out := make(map[string]Stats, len(s.order))
	for _, name := range s.order {
		st := s.queries[name].Stats()
		for _, ent := range s.attached[name] {
			if n := len(ent.sharers); n > st.SharerCount {
				st.SharerCount = n
			}
			if len(ent.sharers) > 1 && ent.sharers[0] != name {
				st.SharedBytesSaved += ent.store.MemoryBytes()
			}
		}
		for _, g := range s.queries[name].memoryDemandDetail() {
			if g.CrossID != "" && s.crossGroups[g.CrossID].users >= 2 {
				st.SharedCaches++
			}
		}
		out[name] = st
	}
	return out
}

// Health reports per-shard health for every registered sharded query, keyed
// by query name (serial engines have no shards and are omitted), iterating
// queries in registration order. Safe to call while engines are running.
func (s *Server) Health() map[string][]ShardHealth {
	out := make(map[string][]ShardHealth)
	for _, name := range s.order {
		if h := s.queries[name].health(); h != nil {
			out[name] = h
		}
	}
	return out
}

// Append pushes one tuple of the named count-windowed stream into every
// registered query that declares a relation by that name, and returns the
// total join-result updates emitted across them. The resulting window
// updates are interleaved per update index (see fanOut) — the lockstep order
// queries sharing the stream's window store require: driving the engines'
// own Append methods one after the other would let the first sharer run a
// full delete+insert ahead, which the shared store rejects. Queries not
// sharing anything are fed identically; for them the order is merely
// deterministic. Sharded engines route their updates asynchronously, as
// their own Append does.
func (s *Server) Append(name string, values ...int64) int {
	return s.fanOut(name, func(h hosted, rel int) []stream.Update { return h.appendRow(rel, values) })
}

// Insert processes an insertion into the named stream in every registered
// query declaring it, in registration order, and returns the total
// join-result updates emitted. One call is one update, so sharers stay in
// lockstep by construction.
func (s *Server) Insert(name string, values ...int64) int {
	return s.fanOut(name, func(h hosted, rel int) []stream.Update { return h.front().update(stream.Insert, rel, values) })
}

// Delete processes a deletion from the named stream in every registered
// query declaring it, in registration order, and returns the total
// join-result updates emitted.
func (s *Server) Delete(name string, values ...int64) int {
	return s.fanOut(name, func(h hosted, rel int) []stream.Update { return h.front().update(stream.Delete, rel, values) })
}

// fanOut turns one call on the named stream into updates for every registered
// query declaring it — updates(h, rel) — and feeds them interleaved per
// update index: every engine takes update k before any engine takes k+1,
// engines in registration order. It returns the join-result updates emitted.
func (s *Server) fanOut(name string, updates func(h hosted, rel int) []stream.Update) int {
	s.feedQueries = s.feedQueries[:0]
	s.feedUps = s.feedUps[:0]
	maxUps := 0
	for _, q := range s.order {
		h := s.queries[q]
		if rel, declared := h.front().q.indexOf[name]; declared {
			ups := updates(h, rel)
			s.feedQueries = append(s.feedQueries, h)
			s.feedUps = append(s.feedUps, ups)
			maxUps = max(maxUps, len(ups))
		}
	}
	total := 0
	for k := 0; k < maxUps; k++ {
		for i, h := range s.feedQueries {
			if ups := s.feedUps[i]; k < len(ups) {
				total += h.feed(ups[k : k+1])
			}
		}
	}
	return total
}

// tick is called by hosted engines after each processed update to drive
// automatic rebalancing.
func (s *Server) tick() {
	if s.RebalanceEvery <= 0 {
		return
	}
	s.sinceRebalance++
	if s.sinceRebalance >= s.RebalanceEvery {
		s.Rebalance()
	}
}
