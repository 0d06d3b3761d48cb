package bench

import "testing"

// TestAdaptivityReport exercises the experiment end to end at test scale and
// asserts the published decision-identity differential actually holds.
func TestAdaptivityReport(t *testing.T) {
	cfg := RunConfig{Warmup: 1500, Measure: 3000, Seed: 42}
	rep := RunAdaptivity([]int{3}, cfg)
	if !rep.DecisionsIdentical {
		t.Fatal("fast paths diverged from the reference implementation")
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2 (mjoin, exact)", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", pt.Mode, pt.NsPerOp)
		}
	}
	if got := rep.Experiment(); got.ID != "adaptivity" || len(got.Series) != 2 {
		t.Errorf("experiment rendering wrong: id=%q series=%d", got.ID, len(got.Series))
	}
}
