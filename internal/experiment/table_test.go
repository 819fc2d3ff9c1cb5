package experiment

import (
	"strings"
	"testing"

	"vswapsim/internal/scenario"
)

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:   "x",
		Columns: []string{"a", "b,with comma", "c"},
	}
	tab.Add("1", "2", `say "hi"`)
	got := tab.CSV()
	want := "a,\"b,with comma\",c\n1,2,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "T", PaperNote: "p"}
	tab := &Table{Columns: []string{"c"}}
	tab.Add("v")
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes, "n1")
	out := rep.String()
	for _, frag := range []string{"== x: T ==", "paper: p", "c", "v", "note: n1"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in %q", frag, out)
		}
	}
}

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s                          scenario.Scheme
		mapper, preventer, balloon bool
	}{
		{scenario.Baseline, false, false, false},
		{scenario.BalloonBase, false, false, true},
		{scenario.MapperOnly, true, false, false},
		{scenario.VSwapper, true, true, false},
		{scenario.BalloonVSwapper, true, true, true},
	}
	for _, c := range cases {
		if c.s.Mapper() != c.mapper || c.s.Preventer() != c.preventer || c.s.Balloon() != c.balloon {
			t.Fatalf("scheme %v has wrong component set", c.s)
		}
		if c.s.String() == "" || strings.Contains(c.s.String(), "Scheme(") {
			t.Fatalf("scheme %v has no name", c.s)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}.normalized()
	if o.mb(512) != 256 {
		t.Fatalf("mb(512) = %d", o.mb(512))
	}
	if o.pages(512) != 256<<20/4096 {
		t.Fatalf("pages = %d", o.pages(512))
	}
	if got := o.mb(1); got < 8 {
		t.Fatalf("minimum clamp broken: %d", got)
	}
	if d := (Options{}).normalized(); d.Seed != 42 || d.Scale != 1.0 {
		t.Fatalf("defaults: %+v", d)
	}
}
