package tuple

import "fmt"

// Attr identifies an attribute of a base relation by relation index and
// attribute name, e.g. {Rel: 2, Name: "B"} is R3.B in the paper's notation
// (relations are 0-indexed internally).
type Attr struct {
	Rel  int
	Name string
}

func (a Attr) String() string { return fmt.Sprintf("R%d.%s", a.Rel+1, a.Name) }

// Schema describes the columns of a (possibly composite) tuple: for each
// column, which base-relation attribute it carries.
type Schema struct {
	cols []Attr
	// pos maps an attribute to its column, for O(1) resolution.
	pos map[Attr]int
}

// NewSchema builds a schema from an ordered list of attributes. Duplicate
// attributes are rejected: a composite tuple never carries the same base
// attribute twice because each base relation appears at most once in a
// pipeline prefix.
func NewSchema(cols ...Attr) *Schema {
	s := &Schema{cols: append([]Attr(nil), cols...), pos: make(map[Attr]int, len(cols))}
	for i, a := range cols {
		if _, dup := s.pos[a]; dup {
			panic(fmt.Sprintf("tuple: duplicate attribute %v in schema", a))
		}
		s.pos[a] = i
	}
	return s
}

// RelationSchema builds the schema of base relation rel with the given
// attribute names.
func RelationSchema(rel int, names ...string) *Schema {
	cols := make([]Attr, len(names))
	for i, n := range names {
		cols[i] = Attr{Rel: rel, Name: n}
	}
	return NewSchema(cols...)
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the attribute carried by column i.
func (s *Schema) Col(i int) Attr { return s.cols[i] }

// Cols returns a copy of the ordered column attributes.
func (s *Schema) Cols() []Attr { return append([]Attr(nil), s.cols...) }

// ColOf returns the column index of attribute a and whether it is present.
func (s *Schema) ColOf(a Attr) (int, bool) {
	i, ok := s.pos[a]
	return i, ok
}

// MustColOf is ColOf for attributes known to be present; it panics otherwise.
func (s *Schema) MustColOf(a Attr) int {
	i, ok := s.pos[a]
	if !ok {
		panic(fmt.Sprintf("tuple: attribute %v not in schema %v", a, s.cols))
	}
	return i
}

// Concat returns the schema of t.Concat(u) for tuples with schemas s and u.
func (s *Schema) Concat(u *Schema) *Schema {
	return NewSchema(append(s.Cols(), u.Cols()...)...)
}

// Relations returns the distinct relation indexes present, in column order of
// first appearance.
func (s *Schema) Relations() []int {
	seen := make(map[int]bool)
	var out []int
	for _, a := range s.cols {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

func (s *Schema) String() string {
	out := "("
	for i, a := range s.cols {
		if i > 0 {
			out += ", "
		}
		out += a.String()
	}
	return out + ")"
}
