package tuple

import "testing"

func TestSchemaBasics(t *testing.T) {
	s := RelationSchema(1, "A", "B")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Col(0) != (Attr{Rel: 1, Name: "A"}) {
		t.Fatalf("Col(0) = %v", s.Col(0))
	}
	if i, ok := s.ColOf(Attr{Rel: 1, Name: "B"}); !ok || i != 1 {
		t.Fatalf("ColOf(B) = %d, %v", i, ok)
	}
	if _, ok := s.ColOf(Attr{Rel: 0, Name: "A"}); ok {
		t.Fatal("ColOf found attribute of wrong relation")
	}
}

func TestSchemaConcat(t *testing.T) {
	a := RelationSchema(0, "A")
	b := RelationSchema(1, "A", "B")
	c := a.Concat(b)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.MustColOf(Attr{Rel: 1, Name: "B"}) != 2 {
		t.Fatal("concat column positions wrong")
	}
	rels := c.Relations()
	if len(rels) != 2 || rels[0] != 0 || rels[1] != 1 {
		t.Fatalf("Relations = %v", rels)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attribute must panic")
		}
	}()
	NewSchema(Attr{Rel: 0, Name: "A"}, Attr{Rel: 0, Name: "A"})
}

func TestMustColOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustColOf on absent attribute must panic")
		}
	}()
	RelationSchema(0, "A").MustColOf(Attr{Rel: 3, Name: "Z"})
}

func TestSchemaProject(t *testing.T) {
	s := RelationSchema(2, "X", "Y", "Z")
	cols := []int{s.MustColOf(Attr{Rel: 2, Name: "Z"}), s.MustColOf(Attr{Rel: 2, Name: "X"})}
	if cols[0] != 2 || cols[1] != 0 {
		t.Fatalf("Project = %v", cols)
	}
}

func TestSchemaString(t *testing.T) {
	if s := RelationSchema(0, "A").String(); s != "(R1.A)" {
		t.Fatalf("String = %q", s)
	}
}
