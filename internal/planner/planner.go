// Package planner enumerates candidate caches for a set of MJoin pipelines:
// the prefix-invariant candidates of Section 4 and the globally-consistent
// candidates of Section 6. It computes cache keys (as attribute equivalence
// classes), canonical identities for cache sharing (Definition 4.1), and the
// per-pipeline containment forests the selection algorithms rely on
// (Theorem 4.1).
package planner

import (
	"fmt"
	"sort"
	"strings"

	"acache/internal/query"
)

// Ordering fixes the MJoin pipelines: Ordering[i] is the sequence of the
// other n−1 relations joined, in order, when an update to relation i is
// processed (the paper's R_i1 … R_i(n−1)).
type Ordering [][]int

// Validate checks that ord is a well-formed ordering for an n-way join:
// each pipeline i is a permutation of all relations except i.
func (ord Ordering) Validate(n int) error {
	if len(ord) != n {
		return fmt.Errorf("planner: ordering has %d pipelines, want %d", len(ord), n)
	}
	for i, pipe := range ord {
		if len(pipe) != n-1 {
			return fmt.Errorf("planner: pipeline %d has %d steps, want %d", i, len(pipe), n-1)
		}
		seen := make(map[int]bool, n)
		for _, r := range pipe {
			if r < 0 || r >= n || r == i || seen[r] {
				return fmt.Errorf("planner: pipeline %d is not a permutation of the other relations: %v", i, pipe)
			}
			seen[r] = true
		}
	}
	return nil
}

// Clone deep-copies the ordering.
func (ord Ordering) Clone() Ordering {
	out := make(Ordering, len(ord))
	for i, p := range ord {
		out[i] = append([]int(nil), p...)
	}
	return out
}

// Spec describes one candidate cache placement: cache C_ijk lives in
// pipeline Pipeline and covers join operators at positions Start..End
// (0-based, inclusive, End > Start−1; at least two relations so the cached
// subresult contains at least one join, per Example 4.1).
type Spec struct {
	// Pipeline is i: the pipeline whose CacheLookup probes this cache.
	Pipeline int
	// Start and End are the covered operator positions j..k, 0-based
	// inclusive, in pipeline i.
	Start, End int
	// Segment is the set of relations at positions Start..End, sorted.
	Segment []int
	// KeyClasses is the cache key K_ijk: the sorted attribute equivalence
	// classes shared between the pipeline's prefix relations and Segment.
	KeyClasses []int
	// GC marks a globally-consistent cache (Section 6) caching X ⋉ Y with
	// X = Segment; for prefix-invariant caches GC is false and Y is nil.
	GC bool
	// Y is the reduction set of a globally-consistent cache, sorted.
	// Segment ∪ Y satisfies the prefix invariant.
	Y []int
	// SelfMaint marks the fallback mode for segments with no host-free
	// reduction closure (the paper's X ⋉ Y with Y containing the hosting
	// pipeline's own relation, e.g. Figure 12's (T⋈S)⋉R): entries hold the
	// full segment-join selection and are maintained by an explicitly paid
	// mini-join — each segment relation's update is joined with the other
	// segment relations to compute the exact segment-join delta, which is
	// applied to the cache. This keeps the plain consistency invariant
	// (Definition 3.1) at a maintenance cost the cost model charges,
	// instead of the paper's host-in-Y reduction, whose probe-correctness
	// hole is analyzed in DESIGN.md.
	SelfMaint bool

	// key and sharingID memoize Key and SharingID; Spec fields are never
	// mutated after planning.
	key       string
	sharingID string
}

// Key identifies one candidate placement: pipeline, span, and mode. The
// adaptive engine and the profiler look placements up on every update, so
// the identifier is memoized rather than re-formatted per call. (The format
// matches the engine's historical placement key, whose string order breaks
// selection ties.)
func (s *Spec) Key() string {
	if s.key == "" {
		s.key = fmt.Sprintf("%d:%d:%d:gc=%v", s.Pipeline, s.Start, s.End, s.GC)
	}
	return s.key
}

// SharingID returns the canonical identity under which caches are shared
// across pipelines (Definition 4.1): same segment relation set and same key.
// Globally-consistent caches additionally require the same reduction set,
// since their contents depend on Y.
func (s *Spec) SharingID() string {
	if s.sharingID != "" {
		return s.sharingID
	}
	var b strings.Builder
	b.WriteString("seg=")
	for _, r := range s.Segment {
		fmt.Fprintf(&b, "%d,", r)
	}
	b.WriteString("key=")
	for _, c := range s.KeyClasses {
		fmt.Fprintf(&b, "%d,", c)
	}
	if s.GC {
		b.WriteString("Y=")
		for _, r := range s.Y {
			fmt.Fprintf(&b, "%d,", r)
		}
		if s.SelfMaint {
			b.WriteString("inv")
		}
	}
	s.sharingID = b.String()
	return s.sharingID
}

// String renders the spec in the paper's style, e.g. "C[ΔR1: R2⋈R3]".
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "C[ΔR%d:", s.Pipeline+1)
	for i, r := range s.Segment {
		if i > 0 {
			b.WriteString("⋈")
		} else {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "R%d", r+1)
	}
	switch {
	case s.SelfMaint:
		b.WriteString(" self-maint")
	case s.GC:
		b.WriteString(" ⋉")
		for _, r := range s.Y {
			fmt.Fprintf(&b, " R%d", r+1)
		}
	}
	b.WriteString("]")
	return b.String()
}

// Overlaps reports whether two specs share a join operator — only possible
// within one pipeline (nonoverlap is a per-pipeline constraint, Section 4.2).
func (s *Spec) Overlaps(t *Spec) bool {
	return s.Pipeline == t.Pipeline && s.Start <= t.End && t.Start <= s.End
}

// segmentSet returns the sorted relations at positions start..end of pipe.
func segmentSet(pipe []int, start, end int) []int {
	seg := append([]int(nil), pipe[start:end+1]...)
	sort.Ints(seg)
	return seg
}

// prefixSet returns the relations before position start in pipeline i
// (including relation i itself, which heads every composite tuple).
func prefixSet(i int, pipe []int, start int) []int {
	out := []int{i}
	out = append(out, pipe[:start]...)
	sort.Ints(out)
	return out
}

// SatisfiesPrefixInvariant reports whether the relation set rels satisfies
// Definition 3.2 under ord: for every relation l in rels, the first
// len(rels)−1 operators of ΔR_l's pipeline join exactly the other relations
// of rels (in some order).
func SatisfiesPrefixInvariant(ord Ordering, rels []int) bool {
	k := len(rels) - 1
	inSet := make(map[int]bool, len(rels))
	for _, r := range rels {
		inSet[r] = true
	}
	for _, l := range rels {
		pipe := ord[l]
		if len(pipe) < k {
			return false
		}
		for _, r := range pipe[:k] {
			if !inSet[r] {
				return false
			}
		}
	}
	return true
}

// Candidates enumerates all prefix-invariant candidate caches for the given
// ordering: every contiguous segment of ≥ 2 operators in every pipeline whose
// relation set satisfies the prefix invariant. Within each pipeline the
// result is sorted by (Start, End).
func Candidates(q *query.Query, ord Ordering) []*Spec {
	n := q.N()
	var out []*Spec
	for i := 0; i < n; i++ {
		pipe := ord[i]
		for start := 0; start < len(pipe); start++ {
			for end := start + 1; end < len(pipe); end++ {
				seg := segmentSet(pipe, start, end)
				if !SatisfiesPrefixInvariant(ord, seg) {
					continue
				}
				if !thetaSafe(q, ord, i, start, end) {
					continue
				}
				out = append(out, newSpec(q, ord, i, start, end, false, nil))
			}
		}
	}
	return out
}

// thetaSafe reports whether a placement's cache can stay consistent in the
// presence of residual theta predicates: no theta may cross from the
// placement's prefix (the host relation and the operators before the
// segment) into the segment. Such a theta would be evaluated inside the
// cached segment's operators, making the computed values depend on the
// probing tuple — cache entries must be pure key selections (Definition
// 3.1). Thetas internal to the segment, or between the segment and the
// pipeline's suffix, are applied identically with or without the cache.
func thetaSafe(q *query.Query, ord Ordering, i, start, end int) bool {
	pipe := ord[i]
	seg := segmentSet(pipe, start, end)
	prefix := prefixSet(i, pipe, start)
	return len(q.ThetasBetween(prefix, seg)) == 0
}

func newSpec(q *query.Query, ord Ordering, i, start, end int, gc bool, y []int) *Spec {
	pipe := ord[i]
	seg := segmentSet(pipe, start, end)
	prefix := prefixSet(i, pipe, start)
	return &Spec{
		Pipeline:   i,
		Start:      start,
		End:        end,
		Segment:    seg,
		KeyClasses: q.SharedClasses(prefix, seg),
		GC:         gc,
		Y:          y,
	}
}

// GCCandidates enumerates globally-consistent candidates per Section 6's
// quota scheme. quota is the paper's m: if the number of prefix-invariant
// candidates p ≥ quota, no GC candidates are added. Otherwise up to
// quota − p GC caches X ⋉ Y are generated, first with |Y| = 1 closures
// (X ∪ Y is all but zero extra relations beyond the smallest closure), then
// growing Y, until the quota fills. Each GC candidate is a segment of some
// pipeline whose relation set X does not itself satisfy the prefix
// invariant, paired with the smallest Y ⊇ ∅ disjoint from X such that X ∪ Y
// does (taking Y = all remaining relations always works, since the prefix
// invariant trivially holds for R_1…R_n).
func GCCandidates(q *query.Query, ord Ordering, prefixCands []*Spec, quota int) []*Spec {
	p := len(prefixCands)
	if p >= quota {
		return nil
	}
	n := q.N()
	type gcCand struct {
		spec  *Spec
		ySize int
	}
	var pool []gcCand
	seen := make(map[string]bool)
	for _, c := range prefixCands {
		seen[fmt.Sprintf("%d:%d:%d", c.Pipeline, c.Start, c.End)] = true
	}
	for i := 0; i < n; i++ {
		pipe := ord[i]
		for start := 0; start < len(pipe); start++ {
			for end := start + 1; end < len(pipe); end++ {
				if seen[fmt.Sprintf("%d:%d:%d", i, start, end)] {
					continue
				}
				if !thetaSafe(q, ord, i, start, end) {
					continue
				}
				seg := segmentSet(pipe, start, end)
				y := smallestClosure(ord, seg, i, n)
				if y == nil {
					// No host-free closure (the paper would put the host
					// relation itself in Y): fall back to the
					// invalidation-mode cache, ranked after every real
					// closure.
					spec := newSpec(q, ord, i, start, end, true, nil)
					spec.SelfMaint = true
					pool = append(pool, gcCand{spec: spec, ySize: n})
					continue
				}
				pool = append(pool, gcCand{spec: newSpec(q, ord, i, start, end, true, y), ySize: len(y)})
			}
		}
	}
	// Smaller reduction sets first (Section 6: "X is all but one relation,
	// then … all but two", i.e. prefer small Y), then canonical order.
	sort.SliceStable(pool, func(a, b int) bool {
		if pool[a].ySize != pool[b].ySize {
			return pool[a].ySize < pool[b].ySize
		}
		sa, sb := pool[a].spec, pool[b].spec
		if sa.Pipeline != sb.Pipeline {
			return sa.Pipeline < sb.Pipeline
		}
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End < sb.End
	})
	limit := quota - p
	var out []*Spec
	for _, c := range pool {
		if len(out) >= limit {
			break
		}
		out = append(out, c.spec)
	}
	return out
}

// smallestClosure finds the smallest set Y (sorted), disjoint from seg and
// excluding the hosting pipeline's relation host, such that seg ∪ Y
// satisfies the prefix invariant; nil if none exists (it always does unless
// the only closure requires the host relation itself: the full set
// R_1…R_n \ {host} may not be prefix-closed, in which case the candidate is
// skipped — the full set including host can never be a cache segment of
// host's own pipeline).
func smallestClosure(ord Ordering, seg []int, host, n int) []int {
	// Candidates for Y members: all relations not in seg and not the host.
	inSeg := make(map[int]bool)
	for _, r := range seg {
		inSeg[r] = true
	}
	var others []int
	for r := 0; r < n; r++ {
		if r != host && !inSeg[r] {
			others = append(others, r)
		}
	}
	// Search subsets of others by increasing size. n is small (the paper's
	// experiments go to n = 9, quota m = 6), so the 2^|others| walk is fine;
	// we bound it for safety.
	if len(others) > 20 {
		others = others[:20]
	}
	best := []int(nil)
	for size := 0; size <= len(others); size++ {
		if found := searchClosure(ord, seg, others, size); found != nil {
			best = found
			break
		}
	}
	if best == nil {
		return nil
	}
	sort.Ints(best)
	return best
}

// searchClosure tries all size-element subsets of others as Y.
func searchClosure(ord Ordering, seg, others []int, size int) []int {
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	for {
		y := make([]int, size)
		for i, j := range idx {
			y[i] = others[j]
		}
		if size > 0 || !SatisfiesPrefixInvariant(ord, seg) {
			union := append(append([]int(nil), seg...), y...)
			sort.Ints(union)
			if SatisfiesPrefixInvariant(ord, union) {
				return y
			}
		}
		if size == 0 {
			return nil
		}
		// Next combination.
		i := size - 1
		for i >= 0 && idx[i] == len(others)-size+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < size; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
