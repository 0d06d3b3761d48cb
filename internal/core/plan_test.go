package core

import (
	"testing"

	"acache/internal/memory"
	"acache/internal/planner"
	"acache/internal/query"
	"acache/internal/stream"
	"acache/internal/synth"
)

func TestPlanSnapshot(t *testing.T) {
	q := threeWay(t)
	ord := planner.Ordering{{1, 2}, {2, 0}, {1, 0}}
	en, err := NewEngine(q, ord, Config{ReoptInterval: 500, Seed: 19})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	src := stream.NewSource([]stream.RelStream{
		{Gen: synth.Tuples(synth.Counter(0, 20, 5)), WindowSize: 100, Rate: 10},
		{Gen: synth.Tuples(synth.Counter(0, 20, 1), synth.Counter(0, 20, 1)), WindowSize: 50, Rate: 1},
		{Gen: synth.Tuples(synth.Counter(0, 20, 1)), WindowSize: 50, Rate: 1},
	})
	for i := 0; i < 20000; i++ {
		en.Process(src.Next())
	}
	plan := en.Plan()
	if len(plan.Pipelines) != 3 {
		t.Fatalf("pipelines = %v", plan.Pipelines)
	}
	for i, p := range plan.Pipelines {
		if len(p) != 2 {
			t.Fatalf("pipeline %d = %v", i, p)
		}
	}
	if len(plan.Caches) == 0 {
		t.Fatalf("expected used caches in the snapshot; states: %v", cacheStates(en))
	}
	c := plan.Caches[0]
	if c.State != Used || c.Entries == 0 || c.Bytes == 0 {
		t.Fatalf("cache description %+v", c)
	}
	if c.HitRate <= 0 || c.HitRate > 1 {
		t.Fatalf("hit rate %v out of range", c.HitRate)
	}
	if len(c.Segments) < 2 {
		t.Fatalf("segments %v", c.Segments)
	}
}

func TestStateString(t *testing.T) {
	if Used.String() != "used" || Profiled.String() != "profiled" || Unused.String() != "unused" {
		t.Fatal("state strings wrong")
	}
	if State(99).String() != "unused" {
		t.Fatal("unknown state should render as unused")
	}
}

// TestCandidateKeysDistinct pins what the engine's one candidate slice relies
// on: the placements it enumerates — prefix candidates plus a GC quota — have
// distinct keys, so no placement is tracked twice, and sit in key order.
func TestCandidateKeysDistinct(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *query.Query
	}{{"3-way chain", threeWay(t)}, {"4-way clique", fourWayClique(t)}, {"6-way star", starOnA(t, 6)}} {
		en, err := NewEngine(tc.q, nil, Config{GCQuota: 6, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(en.cands) == 0 {
			t.Fatalf("%s: no candidates; test is vacuous", tc.name)
		}
		for i := 1; i < len(en.cands); i++ {
			if a, b := en.cands[i-1].spec.Key(), en.cands[i].spec.Key(); a >= b {
				t.Fatalf("%s: candidate keys %q, %q not strictly increasing", tc.name, a, b)
			}
		}
	}
}

// TestGroupDemandIsLargestMember: a sharing group's memory demand is the
// largest of its used members' expected bytes — the size allocateMemory asks
// the memory manager for — whichever member comes first in placement order.
func TestGroupDemandIsLargestMember(t *testing.T) {
	q := starOnA(t, 4)
	ord := planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
	var pair []*planner.Spec
	specs := planner.Candidates(q, ord)
	for i, a := range specs {
		for _, b := range specs[i+1:] {
			if pair == nil && a.SharingID() == b.SharingID() {
				pair = []*planner.Spec{a, b}
			}
		}
	}
	if pair == nil {
		t.Fatal("no two candidates share a cache; test is vacuous")
	}
	en, err := NewEngine(q, ord, Config{ForcedCaches: pair, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The first member in placement order expects the smaller cache.
	en.cands[0].est.ExpectedBytes = 8 * memory.PageBytes
	en.cands[1].est.ExpectedBytes = 20 * memory.PageBytes
	en.SetMemoryBudget(100 * memory.PageBytes)
	d := en.MemoryDemandDetail()
	if len(d) != 1 || d[0].Bytes != 20*memory.PageBytes {
		t.Fatalf("demand %+v, want one group of %d bytes", d, 20*memory.PageBytes)
	}
	if len(en.allocReqs) != 1 || en.allocReqs[0].Bytes != d[0].Bytes {
		t.Fatalf("allocateMemory asked for %+v, MemoryDemandDetail reports %d bytes", en.allocReqs, d[0].Bytes)
	}
}
