package core

import (
	"fmt"

	"acache/internal/tuple"
)

// Checkpoint is a snapshot of the engine state a restart must preserve: the
// relation windows (the only state join results depend on) and the headline
// counters at capture time. Caches, profiler statistics, and
// adaptivity phase are deliberately excluded — the paper's central property
// (Section 3.2: caches obey consistency but not completeness) means a
// restored engine can start cache-cold and repopulate adaptively while every
// join result stays exact.
//
// Checkpoint must be called quiesced: the engine is single-goroutine, so the
// caller is either the goroutine driving it (a shard worker between batches)
// or has arranged the same happens-before a Flush barrier provides.
type Checkpoint struct {
	// Snap holds the counters at capture, so a supervisor can carry totals
	// across an engine rebuild (the rebuilt engine restarts from zero and
	// recounts only post-checkpoint replay).
	Snap Snapshot
	// Rels[rel] is relation rel's window contents at capture.
	Rels [][]tuple.Tuple
}

// Checkpoint captures the engine's windows and counters.
func (en *Engine) Checkpoint() *Checkpoint {
	n := en.q.N()
	ck := &Checkpoint{Snap: en.Snapshot(), Rels: make([][]tuple.Tuple, n)}
	// Adaptivity telemetry is process-local instrumentation, not replay
	// state: it means nothing after a restore (the restored engine
	// re-measures from scratch), so a checkpoint carries it at zero.
	ck.Snap.ReoptNanos = 0
	ck.Snap.SampledUpdates = 0
	ck.Snap.CandidateRescores = 0
	for rel := 0; rel < n; rel++ {
		all := en.exec.Store(rel).All()
		ts := make([]tuple.Tuple, len(all))
		for i, t := range all {
			// Clone: store tuples live in the store's slab, which dies with
			// the engine the checkpoint is meant to outlive.
			ts[i] = t.Clone()
		}
		ck.Rels[rel] = ts
	}
	return ck
}

// RestoreWindows bulk-loads a checkpoint's window contents into a freshly
// constructed engine: tuples go straight into the relation stores (and their
// indexes) without join processing, so nothing is emitted and no cache is
// populated. The engine must not have processed any updates yet. A nil
// checkpoint restores nothing (recovery from the stream start).
func (en *Engine) RestoreWindows(ck *Checkpoint) error {
	if en.updates != 0 {
		return fmt.Errorf("core: RestoreWindows on an engine that has processed %d updates", en.updates)
	}
	if ck == nil {
		return nil
	}
	if len(ck.Rels) != en.q.N() {
		return fmt.Errorf("core: checkpoint has %d relations, engine %d", len(ck.Rels), en.q.N())
	}
	for rel, ts := range ck.Rels {
		st := en.exec.Store(rel)
		for _, t := range ts {
			if len(t) != en.q.Schema(rel).Len() {
				return fmt.Errorf("core: checkpoint relation %d tuple arity %d, want %d",
					rel, len(t), en.q.Schema(rel).Len())
			}
			st.Insert(t)
		}
	}
	return nil
}

// AddSnapshot accumulates another snapshot's cumulative counters into s —
// the supervisor-side merge when totals span engine rebuilds.
// CacheMemoryBytes, WindowBytes and SharedStores are
// point-in-time gauges, not cumulative counters, so they are not summed.
func (s *Snapshot) AddSnapshot(o Snapshot) {
	s.Updates += o.Updates
	s.Outputs += o.Outputs
	s.Work += o.Work
	s.Reopts += o.Reopts
	s.SkippedReopts += o.SkippedReopts
	s.ReoptNanos += o.ReoptNanos
	s.SampledUpdates += o.SampledUpdates
	s.CandidateRescores += o.CandidateRescores
}

// SetCachingPaused pauses (or resumes) adaptive caching at run time — the
// first rung of the overload degradation ladder. Pausing drops every cache —
// the paper's near-zero-cost degradation move: results stay exact, only the
// work saved by the caches is lost — and sets the adaptive controller aside,
// so per update the engine does exactly what an MJoin does. The controller's
// profiler, candidate estimates and counters survive; resuming puts it back
// with a fresh profiling phase so caches can return (DESIGN.md §23).
// No-op without an adaptive controller (an MJoin, a pinned plan), and when
// the state does not change.
func (en *Engine) SetCachingPaused(paused bool) {
	a := en.ctl
	if a == nil || paused == (en.ad == nil) {
		return
	}
	if !paused {
		en.ad = a
		a.resume()
		return
	}
	en.ad = nil
	a.pause()
	for _, c := range en.cands {
		if c.state == Used || c.suspended {
			en.detach(c)
		}
	}
}
