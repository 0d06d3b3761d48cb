package memory

import "testing"

func TestUnlimitedBudget(t *testing.T) {
	m := NewManager(-1)
	out := map[string]int{}
	m.AllocateInto(out, []Request{{ID: "a", Priority: 1, Bytes: 100}})
	if out["a"] != -1 {
		t.Fatalf("unlimited grant = %d", out["a"])
	}
}

func TestGreedyByPriority(t *testing.T) {
	m := NewManager(3 * PageBytes)
	out := map[string]int{}
	m.AllocateInto(out, []Request{
		{ID: "low", Priority: 0.1, Bytes: 2 * PageBytes},
		{ID: "high", Priority: 0.9, Bytes: 2 * PageBytes},
	})
	if out["high"] != 2*PageBytes {
		t.Fatalf("high-priority grant = %d", out["high"])
	}
	if out["low"] != PageBytes {
		t.Fatalf("low-priority remainder grant = %d", out["low"])
	}
}

func TestPageRounding(t *testing.T) {
	m := NewManager(10 * PageBytes)
	out := map[string]int{}
	m.AllocateInto(out, []Request{{ID: "a", Priority: 1, Bytes: PageBytes + 1}})
	if out["a"] != 2*PageBytes {
		t.Fatalf("grant = %d, want rounded to 2 pages", out["a"])
	}
	m.AllocateInto(out, []Request{{ID: "b", Priority: 1, Bytes: 0}})
	if out["b"] != 0 {
		t.Fatalf("zero-byte ask granted %d", out["b"])
	}
}

func TestExhaustionGrantsNothing(t *testing.T) {
	m := NewManager(PageBytes)
	out := map[string]int{}
	m.AllocateInto(out, []Request{
		{ID: "a", Priority: 3, Bytes: PageBytes},
		{ID: "b", Priority: 2, Bytes: PageBytes},
		{ID: "c", Priority: 1, Bytes: PageBytes},
	})
	if out["a"] != PageBytes || out["b"] != 0 || out["c"] != 0 {
		t.Fatalf("grants = %v", out)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	m := NewManager(PageBytes)
	for trial := 0; trial < 10; trial++ {
		out := map[string]int{}
		m.AllocateInto(out, []Request{
			{ID: "b", Priority: 1, Bytes: PageBytes},
			{ID: "a", Priority: 1, Bytes: PageBytes},
		})
		if out["a"] != PageBytes || out["b"] != 0 {
			t.Fatalf("tie break unstable: %v", out)
		}
	}
}

func TestSetBudget(t *testing.T) {
	m := NewManager(100)
	m.SetBudget(5 * PageBytes)
	if m.Budget() != 5*PageBytes {
		t.Fatalf("budget = %d", m.Budget())
	}
}
