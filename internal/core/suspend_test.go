package core

import (
	"testing"

	"acache/internal/planner"
)

// TestSuspendResumeKeepsCacheWarm drives the Section 4.5(b) path directly:
// a used cache whose span covers a profiled subset candidate is suspended
// during a full profile — its lookup disappears but maintenance keeps the
// contents consistent — and resumes with its entries intact.
func TestSuspendResumeKeepsCacheWarm(t *testing.T) {
	q := fourWayClique(t)
	// Ordering with nested candidates in ΔR4: {R1,R2}@[0,1] inside
	// {R1,R2,R3}@[0,2].
	ord := planner.Ordering{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
	en, err := NewEngine(q, ord, Config{ReoptInterval: 400, Seed: 31})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	src := windowSource(q, 40, 10, 32)
	// Run until some cache is used.
	var target *cand
	for i := 0; i < 30000 && target == nil; i++ {
		en.Process(src.Next())
		for _, c := range en.cands {
			if c.state == Used && c.spec.End > c.spec.Start {
				target = c
			}
		}
	}
	if target == nil {
		t.Skip("no cache adopted under this workload; nothing to suspend")
	}
	// Let the freshly adopted cache populate before suspending it.
	for i := 0; i < 2000 && target.state == Used; i++ {
		en.Process(src.Next())
	}
	if target.state != Used {
		t.Skip("cache demoted before it warmed; nothing to suspend")
	}
	inst := en.instOf(target)
	if inst.Cache().Entries() == 0 {
		t.Fatal("used cache has no entries after warm-up")
	}
	// Force a suspension via the executor API and verify contents persist
	// through further updates (maintenance still attached). A shared
	// instance may have sibling placements; suspend them all so no probe
	// path remains.
	var suspended []*cand
	for _, c := range en.cands {
		if c.state == Used && c.group == target.group {
			if !en.exec.SuspendLookup(c.spec) {
				t.Fatalf("SuspendLookup failed on used placement %v", c.spec)
			}
			suspended = append(suspended, c)
		}
	}
	probesBefore := inst.Cache().Stats().Probes
	for i := 0; i < 500; i++ {
		en.exec.Process(src.Next())
	}
	if inst.Cache().Stats().Probes != probesBefore {
		t.Fatal("suspended cache was probed")
	}
	if inst.Cache().Entries() == 0 {
		t.Fatal("suspension lost the cache contents")
	}
	for _, c := range suspended {
		if !en.exec.ResumeLookup(c.spec) {
			t.Fatalf("ResumeLookup failed for %v", c.spec)
		}
	}
	for i := 0; i < 500; i++ {
		en.exec.Process(src.Next())
	}
	if inst.Cache().Stats().Probes == probesBefore {
		t.Fatal("resumed cache is not being probed")
	}
	// Double suspension / resume of absent attachments are no-ops.
	if en.exec.ResumeLookup(target.spec) {
		t.Fatal("resume of an active attachment must fail")
	}
}
