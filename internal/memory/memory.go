// Package memory implements the adaptive memory allocator of Section 5:
// caches are selected assuming infinite memory, then pages are granted
// greedily by priority — a cache's net benefit per byte of expected memory —
// so the engine adapts smoothly as the amount of memory available to the
// query changes.
package memory

import (
	"cmp"
	"slices"
)

// PageBytes is the allocation granularity. Grants are rounded up to whole
// pages, matching the paper's dynamically-allocated memory pages
// (Section 3.3).
const PageBytes = 1024

// Request asks for memory on behalf of one cache.
type Request struct {
	// ID identifies the cache (its sharing identity).
	ID string
	// Priority is (benefit − cost) / expected bytes (Section 5).
	Priority float64
	// Bytes is the cache's expected memory requirement.
	Bytes int
}

// Manager owns a byte budget and divides it among caches.
type Manager struct {
	budget  int       // <0 = unlimited
	scratch []Request // AllocateInto's priority-sort buffer, reused per call
}

// NewManager creates a manager with the given budget; budget < 0 means
// unlimited memory.
func NewManager(budget int) *Manager { return &Manager{budget: budget} }

// SetBudget changes the budget (Figure 13 sweeps this at run time).
func (m *Manager) SetBudget(budget int) { m.budget = budget }

// Budget returns the current budget (<0 = unlimited).
func (m *Manager) Budget() int { return m.budget }

// pages rounds bytes up to whole pages.
func pages(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + PageBytes - 1) / PageBytes * PageBytes
}

// AllocateInto grants memory greedily by descending priority: each request
// gets its full (page-rounded) ask while the budget lasts; the first request
// that does not fit gets the remainder (a cache degrades gracefully under a
// partial budget thanks to the replacement scheme), and later ones get
// nothing. With an unlimited budget every request is granted in full. dst is
// cleared and refilled with the granted bytes per request ID, and the
// priority-sort buffer lives on the Manager, so a steady-state rebalance loop
// allocates nothing.
func (m *Manager) AllocateInto(dst map[string]int, reqs []Request) {
	clear(dst)
	if m.budget < 0 {
		for _, r := range reqs {
			dst[r.ID] = -1 // unlimited
		}
		return
	}
	sorted := append(m.scratch[:0], reqs...)
	m.scratch = sorted
	slices.SortStableFunc(sorted, func(a, b Request) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority) // descending
		}
		return cmp.Compare(a.ID, b.ID)
	})
	remaining := m.budget
	for _, r := range sorted {
		ask := pages(r.Bytes)
		if ask > remaining {
			ask = remaining / PageBytes * PageBytes
		}
		dst[r.ID] = ask
		remaining -= ask
	}
}
