// Package tuple defines the value, tuple, schema, and key primitives shared
// by every layer of the stream-join engine.
//
// All join attributes are int64 values (the paper's experiments use integer
// equijoin attributes drawn from synthetic domains). A Tuple is an immutable
// flat slice of values; composite tuples produced by join pipelines are
// concatenations of base-relation tuples, with a Schema describing which
// columns belong to which relation.
package tuple

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Value is a single attribute value.
type Value = int64

// Tuple is a flat, immutable sequence of attribute values. Composite tuples
// produced during join processing concatenate the values of their source
// tuples in pipeline order.
type Tuple []Value

// Concat returns a new tuple consisting of t followed by u. Neither input is
// modified.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have identical length and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the tuple in the paper's ⟨v1, v2, …⟩ style.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('>')
	return b.String()
}

// Key is a packed, comparable encoding of a projection of a tuple. It is used
// as a map key by hash indexes and caches.
type Key string

// KeyOf packs the values of t at the given column positions into a Key. The
// column order is significant: the same columns in a different order produce
// a different Key, so callers must canonicalize column order when keys from
// different pipelines must match (see planner cache-key construction).
func KeyOf(t Tuple, cols []int) Key {
	buf := make([]byte, 8*len(cols))
	for i, c := range cols {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(t[c]))
	}
	return Key(buf)
}

// KeyOfValues packs raw values into a Key, matching KeyOf for the same values.
func KeyOfValues(vals []Value) Key {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return Key(buf)
}

// Values decodes the key back into its constituent values.
func (k Key) Values() []Value {
	n := len(k) / 8
	out := make([]Value, n)
	for i := 0; i < n; i++ {
		out[i] = int64(binary.LittleEndian.Uint64([]byte(k[8*i : 8*i+8])))
	}
	return out
}

// Encode packs an entire tuple into a Key. It is used by relation stores to
// locate tuples for deletion (windows deliver deletes by value).
func Encode(t Tuple) Key {
	buf := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return Key(buf)
}

// AppendKey appends the packed key of t's cols to dst and returns the
// extended buffer — the zero-allocation counterpart of KeyOf for hot paths
// that reuse a per-pipeline scratch buffer. AppendKey(dst[:0], t, cols)
// produces bytes identical to KeyOf(t, cols).
func AppendKey(dst []byte, t Tuple, cols []int) []byte {
	var w [8]byte
	for _, c := range cols {
		binary.LittleEndian.PutUint64(w[:], uint64(t[c]))
		dst = append(dst, w[:]...)
	}
	return dst
}

// AppendKeyValues appends the packed encoding of raw values to dst, matching
// KeyOfValues(vals) byte for byte.
func AppendKeyValues(dst []byte, vals []Value) []byte {
	var w [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		dst = append(dst, w[:]...)
	}
	return dst
}

// Hashing: a fixed-seed multiply-xor word hash (splitmix64-style finalizer
// per value word) used by the open-addressing stores and indexes. It is
// deliberately deterministic across runs so fixed-seed workloads reproduce
// bit-identically; hash-flooding resistance is not a goal of this engine.

const (
	hashMul1 = 0xff51afd7ed558ccd
	hashMul2 = 0xc4ceb9fe1a85ec53
)

func hashWord(h, v uint64) uint64 { return MixWord(h, v) }

// HashOf returns a 64-bit hash of t's values at cols. The same values in the
// same order produce the same hash regardless of how they are supplied
// (HashOf, HashValues, or HashTuple over an equal projection).
func HashOf(t Tuple, cols []int, seed uint64) uint64 {
	h := seed
	for _, c := range cols {
		h = hashWord(h, uint64(t[c]))
	}
	return hashWord(h, uint64(len(cols)))
}

// HashValues hashes raw values, matching HashOf for the same value sequence.
func HashValues(vals []Value, seed uint64) uint64 {
	h := seed
	for _, v := range vals {
		h = hashWord(h, uint64(v))
	}
	return hashWord(h, uint64(len(vals)))
}

// HashTuple hashes the full tuple, matching HashValues(t, seed).
func HashTuple(t Tuple, seed uint64) uint64 {
	h := seed
	for _, v := range t {
		h = hashWord(h, uint64(v))
	}
	return hashWord(h, uint64(len(t)))
}

// HashBytes hashes packed key bytes, word by word. HashBytes over the bytes
// of KeyOf(t, cols) equals HashOf(t, cols, seed).
func HashBytes(b []byte, seed uint64) uint64 {
	h := seed
	n := len(b) / 8
	for i := 0; i < n; i++ {
		h = hashWord(h, binary.LittleEndian.Uint64(b[8*i:]))
	}
	return hashWord(h, uint64(n))
}
