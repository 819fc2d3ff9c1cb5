package experiment

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestByIDTable(t *testing.T) {
	cases := []struct {
		name    string
		id      string
		wantErr bool
	}{
		{"first entry", "fig3", false},
		{"sweep entry", "fig11", false},
		{"last entry", "migration", false},
		{"table entry", "tab2", false},
		{"empty id", "", true},
		{"unknown id", "fig99", true},
		{"case sensitive", "FIG3", true},
		{"whitespace", " fig3", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := ByID(c.id)
			if c.wantErr {
				if err == nil {
					t.Fatalf("ByID(%q) = %q, want error", c.id, e.ID)
				}
				return
			}
			if err != nil {
				t.Fatalf("ByID(%q): %v", c.id, err)
			}
			if e.ID != c.id || e.Run == nil || e.Title == "" {
				t.Fatalf("ByID(%q) returned incomplete entry: %+v", c.id, e)
			}
		})
	}
}

func TestIDsMatchRegistryOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() has %d entries, registry %d", len(ids), len(Registry))
	}
	for i, e := range Registry {
		if ids[i] != e.ID {
			t.Fatalf("IDs()[%d] = %q, registry order has %q", i, ids[i], e.ID)
		}
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.ID == "" {
			t.Fatalf("registry entry %q has empty id", e.Title)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate registry id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestViewsReadTheirFilesCells pins the registry entries that repeat a
// scenario file's grid as views of that grid. The parallel golden pass is
// one RunAll at the golden configuration over every registry entry and
// every file. In it, fig4 prints fig14.yaml's 10-guest row, fleetN and
// fig5 print fleet.yaml's and pbzip.yaml's tables and notes, and
// backendN's runtimes are backends.yaml's. Each view holds the very run
// records its file holds, as do fig3, fig9, fig12, fig13 and fig14 beside
// their files and fig11 beside pbzip.yaml, so each shared cell was
// simulated once.
func TestViewsReadTheirFilesCells(t *testing.T) {
	docs, _, parallel := passes(t)
	run := func(key string) goldenRun { return parallel.runs[docIndex(t, docs, key)] }

	fig4, fig14 := run("fig4").Report.Tables[0], run("scenarios/fig14.yaml").Report.Tables[0]
	var row10 []string
	for _, r := range fig14.Rows {
		if r[0] == "10" {
			row10 = r
		}
	}
	if row10 == nil || len(fig4.Rows) != len(fig14.Columns)-1 {
		t.Fatalf("fig4 has %d rows for fig14's 10-guest row %v", len(fig4.Rows), row10)
	}
	for _, r := range fig4.Rows {
		col := slices.Index(fig14.Columns, r[0])
		if col < 0 || r[1] != row10[col] {
			t.Errorf("fig4 %s = %q, fig14.yaml's 10-guest %s = %v", r[0], r[1], r[0], row10)
		}
	}

	for _, pair := range [][2]string{{"fleetN", "scenarios/fleet.yaml"}, {"fig5", "scenarios/pbzip.yaml"}} {
		view, file := run(pair[0]).Report, run(pair[1]).Report
		if !reflect.DeepEqual(view.Tables, file.Tables) || !reflect.DeepEqual(view.Notes, file.Notes) {
			t.Errorf("%s prints\n%s\n%s prints\n%s", pair[0], view, pair[1], file)
		}
	}

	runtimes := map[string]string{}
	for _, r := range run("scenarios/backends.yaml").Report.Tables[0].Rows {
		runtimes[r[0]] = r[1]
	}
	for _, r := range run("backendN").Report.Tables[0].Rows {
		if r[1] != runtimes[r[0]+"/baseline"] || r[2] != runtimes[r[0]+"/vswapper"] {
			t.Errorf("backendN %s reads %s/%s, backends.yaml %v", r[0], r[1], r[2], runtimes)
		}
	}

	for _, pair := range [][2]string{
		{"fig4", "scenarios/fig14.yaml"},
		{"fig14", "scenarios/fig14.yaml"},
		{"fleetN", "scenarios/fleet.yaml"},
		{"backendN", "scenarios/backends.yaml"},
		{"fig3", "scenarios/fig3.yaml"},
		{"fig9", "scenarios/fig9.yaml"},
		{"fig5", "scenarios/pbzip.yaml"},
		{"fig11", "scenarios/pbzip.yaml"},
		{"fig12", "scenarios/fig12.yaml"},
		{"fig13", "scenarios/fig13.yaml"},
	} {
		view, file := run(pair[0]).Report.Runs, run(pair[1]).Report.Runs
		if len(view) == 0 {
			t.Errorf("%s has no run records", pair[0])
		}
		for _, v := range view {
			i := slices.IndexFunc(file, func(f RunRecord) bool { return f.Label == v.Label })
			if i < 0 || file[i].Report != v.Report {
				t.Errorf("%s's run %s is not %s's: the cell was simulated twice", pair[0], v.Label, pair[1])
			}
		}
	}

	var doc Report
	if err := json.Unmarshal(run("fig4").json, &doc); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, s := range fig14Scenario().Schemes {
		want = append(want, "dynamic/"+s.Scheme.String()+"/guests10/")
	}
	for _, r := range doc.Runs {
		got = append(got, r.Label[:strings.LastIndex(r.Label, "/")+1])
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("fig4's JSON carries runs %v, want one each of %v", got, want)
	}
}
