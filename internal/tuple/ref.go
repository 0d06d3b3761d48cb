package tuple

import "unsafe"

// Ref is an 8-byte reference to a tuple somebody else stores: a pointer to
// its first value, a third of a slice header. A relation has one arity, so
// whoever holds many tuples of one relation — a window ring, a store slab —
// keeps the width once and a Ref per tuple. The zero Ref refers to nothing;
// a Ref keeps its tuple's storage alive exactly as the Tuple it came from
// did.
type Ref struct{ p *Value }

// RefOf returns the reference to t, which must hold at least one value: an
// empty tuple has no first value to point at (a nil one would read as the
// zero Ref).
func RefOf(t Tuple) Ref { return Ref{unsafe.SliceData(t)} }

// Tuple returns the width-value tuple r refers to — the same storage RefOf
// was given, not a copy. width must be the length of that tuple, and r must
// not be the zero Ref.
func (r Ref) Tuple(width int) Tuple { return unsafe.Slice(r.p, width) }
