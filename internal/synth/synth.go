// Package synth is the synthetic data generator of Section 7.1: it produces
// append-only streams with specified data characteristics (value domains,
// multiplicities, skew) and helpers that translate the paper's workload
// parameters (pairwise join selectivities) into generator settings.
package synth

import (
	"math"
	"math/rand"

	"acache/internal/stream"
	"acache/internal/tuple"
)

// ValueGen produces a sequence of attribute values.
type ValueGen interface {
	Next() tuple.Value
}

// counter cycles deterministically through [base, base+domain) emitting each
// value mult times before advancing. With domain ≤ 0 it counts forever
// without wrapping. Streams built on counters with the same base and domain
// "draw values from the same domain in the same order" (Section 7.2).
type counter struct {
	base   int64
	domain int64
	mult   int
	cur    int64
	rep    int
}

// Counter returns a deterministic cycling generator: values
// base, base, …(mult times)…, base+1, … wrapping after domain values.
func Counter(base, domain int64, mult int) ValueGen {
	if mult < 1 {
		mult = 1
	}
	return &counter{base: base, domain: domain, mult: mult}
}

func (c *counter) Next() tuple.Value {
	v := c.base + c.cur
	c.rep++
	if c.rep >= c.mult {
		c.rep = 0
		c.cur++
		if c.domain > 0 && c.cur >= c.domain {
			c.cur = 0
		}
	}
	return v
}

// uniformGen draws i.i.d. uniform values from [base, base+domain).
type uniformGen struct {
	base   int64
	domain int64
	rng    *rand.Rand
}

// Uniform returns a seeded uniform generator over [base, base+domain).
func Uniform(base, domain int64, seed int64) ValueGen {
	if domain < 1 {
		domain = 1
	}
	return &uniformGen{base: base, domain: domain, rng: rand.New(rand.NewSource(seed))}
}

func (u *uniformGen) Next() tuple.Value { return u.base + u.rng.Int63n(u.domain) }

// zipfGen draws skewed values: value k has probability ∝ 1/(k+1)^s.
type zipfGen struct {
	base int64
	z    *rand.Zipf
}

// Zipf returns a seeded Zipf(s) generator over [base, base+domain). s must
// be > 1 (rand.Zipf's requirement).
func Zipf(base, domain int64, s float64, seed int64) ValueGen {
	rng := rand.New(rand.NewSource(seed))
	return &zipfGen{base: base, z: rand.NewZipf(rng, s, 1, uint64(domain-1))}
}

func (z *zipfGen) Next() tuple.Value { return z.base + int64(z.z.Uint64()) }

// Repeat wraps a generator so each drawn value is emitted mult times in a
// row — the paper's "multiplicity r" applied to an arbitrary base
// distribution (e.g. uniform draws repeated r times keep windows
// uncorrelated across streams while making probe keys repeat).
func Repeat(g ValueGen, mult int) ValueGen {
	if mult < 1 {
		mult = 1
	}
	return &repeatGen{g: g, mult: mult}
}

type repeatGen struct {
	g    ValueGen
	mult int
	cur  tuple.Value
	left int
}

func (r *repeatGen) Next() tuple.Value {
	if r.left == 0 {
		r.cur = r.g.Next()
		r.left = r.mult
	}
	r.left--
	return r.cur
}

// Tuples assembles a stream.TupleGen emitting one value per generator, in
// order, matching a relation schema's columns.
func Tuples(gens ...ValueGen) stream.TupleGen {
	return func() tuple.Tuple {
		t := make(tuple.Tuple, len(gens))
		for i, g := range gens {
			t[i] = g.Next()
		}
		return t
	}
}

// DomainForSelectivity returns the uniform-domain size that yields the given
// pairwise equijoin selectivity: two uniform draws from a domain of size D
// match with probability 1/D, so D ≈ 1/sel. sel ≤ 0 returns 0, meaning
// "use disjoint domains" (no tuples ever join).
func DomainForSelectivity(sel float64) int64 {
	if sel <= 0 {
		return 0
	}
	d := int64(math.Round(1 / sel))
	if d < 1 {
		d = 1
	}
	return d
}

// FitDomains converts a symmetric pairwise-selectivity matrix over n streams
// that all join on a single shared attribute into per-stream nested-domain
// sizes [0, D_i). Under the nested-domain model, sel(i,j) = 1/max(D_i, D_j),
// so arbitrary matrices are only approximable; we pick
// D_i = 1 / min_j sel(i, j), which reproduces every pair's selectivity
// through its larger-domain endpoint — enough to preserve the workload
// shapes of Table 2. An all-zero matrix returns all zeros (disjoint domains).
func FitDomains(sel [][]float64) []int64 {
	n := len(sel)
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		minSel := math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if s := sel[i][j]; s > 0 && s < minSel {
				minSel = s
			}
		}
		if math.IsInf(minSel, 1) {
			out[i] = 0 // no positive selectivity with any partner
			continue
		}
		out[i] = DomainForSelectivity(minSel)
	}
	return out
}

// DisjointUniform returns n uniform generators over mutually disjoint
// domains of the given size — every pairwise selectivity is exactly 0
// (Table 2's D7 point).
func DisjointUniform(n int, domain int64, seed int64) []ValueGen {
	out := make([]ValueGen, n)
	for i := range out {
		out[i] = Uniform(int64(i)*(domain+1)*1_000_003, domain, seed+int64(i))
	}
	return out
}
