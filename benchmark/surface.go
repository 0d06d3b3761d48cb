package main

import (
	"acache"
	"acache/internal/bloom"
	"acache/internal/cache"
	"acache/internal/core"
	"acache/internal/cost"
	"acache/internal/filter"
	"acache/internal/join"
	"acache/internal/ordering"
	"acache/internal/query"
	"acache/internal/relation"
	"acache/internal/stream"
	"acache/internal/tuple"
)

// The contact surface: every symbol of the program the benchmark touches,
// referenced here so that a refactor which moves, renames or reshapes one of
// them breaks the build of this file first — with the whole list in view —
// instead of some measurement loop. Later changes may not edit this
// directory, so anything listed here is, in effect, frozen API; anything not
// listed is free to change. The tests use one more package, internal/oracle
// (oracle.New, Oracle.Process), as ground truth.
//
// Deliberately absent: InstrumentPhases/PhaseNanos, PipelineOptions,
// ReferenceAdaptivity, Server, time windows, Insert/Delete, and every Stats
// field other than the ones statsFields reads.
var surface = []any{
	// Public API: declaring and building.
	acache.NewQuery,
	(*acache.Query).WindowedRelation,
	(*acache.Query).Join,
	(*acache.Query).Build,
	(*acache.Query).BuildSharded,
	(*acache.Query).BuildDurable,
	acache.Options{Seed: 0, NoIndex: nil, DisableCaching: false, Tier: acache.TierOptions{Dir: ""}},
	acache.ShardOptions{Shards: 0},

	// Public API: the serial and durable engine.
	(*acache.Engine).Append,
	(*acache.Engine).OnResult,
	(*acache.Engine).Stats,
	(*acache.Engine).SyncWAL,
	(*acache.Engine).SaveCheckpoint,
	(*acache.Engine).Close,

	// Public API: the sharded engine.
	(*acache.ShardedEngine).Append,
	(*acache.ShardedEngine).AppendBatch,
	(*acache.ShardedEngine).Flush,
	(*acache.ShardedEngine).OnResult,
	(*acache.ShardedEngine).Stats,
	(*acache.ShardedEngine).ShardStats,
	(*acache.ShardedEngine).Close,

	// The parts Engine.Append is made of (composed.go, ladder.go).
	query.New,
	(*query.Query)(nil),
	(*tuple.Schema)(nil),
	tuple.Value(0),
	query.Pred{Left: tuple.Attr{Rel: 0, Name: ""}, Right: tuple.Attr{}},
	tuple.RelationSchema,
	tuple.Tuple.Clone,
	core.NewEngine,
	core.Config{DisableCaching: false, Seed: 0, MemoryBudget: 0, GCQuota: 0, ScanOnly: nil},
	(*core.Engine).Process,
	(*core.Engine).OnResult,
	(*core.Engine).Plan,
	(*core.Engine).Close,
	core.PlanDescription{Caches: []core.CacheDescription{{Entries: 0, HitRate: 0}}},
	stream.NewSlidingWindow,
	(*stream.SlidingWindow).AppendInto,
	(*stream.SlidingWindow).AppendBatchInto,
	stream.Update{Op: 0, Rel: 0, Tuple: nil, Seq: 0},
	join.NewExec,
	join.Options{ScanOnly: nil},
	(*join.Exec).Process,
	(*join.Exec).ProcessProfiled,
	(*join.Exec).ProcessRun,
	(*join.Exec).Batchable,
	(*join.Exec).Close,
	join.Result{Outputs: 0},
	join.Profile{StepInputs: nil},
	ordering.InitialOrdering,
	&cost.Meter{},
	cost.UnitsPerSecond,

	// Primitive probes (probes.go).
	relation.NewStore,
	(*relation.HashIndex)(nil),
	(*relation.Store).CreateIndex,
	(*relation.Store).Insert,
	(*relation.Store).Delete,
	(*relation.Store).ProbeEach,
	(*relation.Store).Scan,
	cache.New,
	(*cache.Cache).Create,
	(*cache.Cache).ProbeBytes,
	(*cache.Cache).InsertBytes,
	(*cache.Cache).DeleteBytes,
	tuple.Key(""),
	tuple.AppendKeyValues,
	tuple.HashValues,
	bloom.New,
	(*bloom.Filter).AddHash,
	filter.New,
	(*filter.Filter).Insert,
	(*filter.Filter).Delete,
	(*filter.Filter).MayContainHash,
}

// statsFields lists the acache.Stats fields the benchmark reads. The durable
// workload also knows one file name inside Options.Tier.Dir: "wal.log", whose
// size gives durable.wal_bytes_per_append.
func statsFields(s acache.Stats) []any {
	return []any{
		s.Updates, s.Outputs, s.WorkSeconds,
		s.Reopts, s.SkippedReopts, s.ReoptNanos, s.SampledUpdates, s.CandidateRescores,
		s.CacheMemoryBytes, s.FilterBytes, s.FilteredProbes, s.FilterFalsePositives, s.WindowBytes,
		s.TierHotBytes, s.TierColdBytes, s.TierPromotions, s.TierDemotions,
		s.WALErrors, s.WALRecordsReplayed, s.Shedded,
	}
}
