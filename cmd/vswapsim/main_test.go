package main

import (
	"reflect"
	"runtime"
	"testing"

	"vswapsim/internal/experiment"
)

// parseCase is one row of a parseArgs table for a command form.
type parseCase struct {
	name    string
	args    []string
	wantErr bool
	check   func(t *testing.T, c cliConfig)
}

func runParseCases(t *testing.T, form string, cases []parseCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseArgs(form, c.args)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parseArgs(%q, %v) succeeded with %+v, want error", form, c.args, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q, %v): %v", form, c.args, err)
			}
			if c.check != nil {
				c.check(t, got)
			}
		})
	}
}

// defaultKnobs checks the run knobs BindFlags leaves on an empty command
// line.
func defaultKnobs(t *testing.T, c cliConfig) {
	t.Helper()
	if c.opts.Parallel != runtime.GOMAXPROCS(0) {
		t.Fatalf("default -parallel = %d, want GOMAXPROCS (%d)", c.opts.Parallel, runtime.GOMAXPROCS(0))
	}
	if c.opts.Scale != 1.0 || c.opts.Seed != 42 || c.opts.Quick {
		t.Fatalf("unexpected defaults: %+v", c.opts)
	}
}

func TestParseArgsTable(t *testing.T) {
	runParseCases(t, "", []parseCase{
		{"defaults", nil, false, func(t *testing.T, c cliConfig) {
			defaultKnobs(t, c)
			if c.list || c.run != "" {
				t.Fatalf("unexpected defaults: %+v", c)
			}
		}},
		{"parallel explicit", []string{"-run", "fig3", "-parallel", "4"}, false, func(t *testing.T, c cliConfig) {
			if c.opts.Parallel != 4 || c.run != "fig3" {
				t.Fatalf("parsed %+v", c)
			}
		}},
		{"serial", []string{"-parallel", "1"}, false, func(t *testing.T, c cliConfig) {
			if c.opts.Parallel != 1 {
				t.Fatalf("parsed %+v", c)
			}
		}},
		{"parallel zero rejected", []string{"-parallel", "0"}, true, nil},
		{"parallel negative rejected", []string{"-parallel", "-2"}, true, nil},
		{"parallel non-numeric rejected", []string{"-parallel", "lots"}, true, nil},
		{"scale zero rejected", []string{"-scale", "0"}, true, nil},
		{"scale too large rejected", []string{"-scale", "17"}, true, nil},
		{"unknown flag rejected", []string{"-frobnicate"}, true, nil},
		{"all flags", []string{"-run", "fig11", "-seed", "7", "-scale", "0.5", "-quick", "-parallel", "2"}, false,
			func(t *testing.T, c cliConfig) {
				want := cliConfig{run: "fig11", opts: experiment.Options{Seed: 7, Scale: 0.5, Quick: true, Parallel: 2}}
				if !reflect.DeepEqual(c, want) {
					t.Fatalf("parsed %+v, want %+v", c, want)
				}
			}},
	})
}

// TestReportParseArgsTable covers the report form's own flags next to the
// shared knobs.
func TestReportParseArgsTable(t *testing.T) {
	runParseCases(t, formReport, []parseCase{
		{"defaults", nil, false, func(t *testing.T, c cliConfig) {
			defaultKnobs(t, c)
			if !c.report || c.only != "" || c.jsonOut {
				t.Fatalf("unexpected defaults: %+v", c)
			}
		}},
		{"parallel explicit", []string{"-parallel", "8", "-quick"}, false, func(t *testing.T, c cliConfig) {
			if c.opts.Parallel != 8 || !c.opts.Quick {
				t.Fatalf("parsed %+v", c)
			}
		}},
		{"parallel zero rejected", []string{"-parallel", "0"}, true, nil},
		{"parallel negative rejected", []string{"-parallel", "-1"}, true, nil},
		{"parallel non-numeric rejected", []string{"-parallel", "many"}, true, nil},
		{"scale invalid rejected", []string{"-scale", "-0.5"}, true, nil},
		{"output flags", []string{"-o", "out.txt", "-csv", "csvdir", "-only", "fig5"}, false,
			func(t *testing.T, c cliConfig) {
				if c.out != "out.txt" || c.csvDir != "csvdir" || c.only != "fig5" {
					t.Fatalf("parsed %+v", c)
				}
			}},
	})
	if _, err := parseArgs("", []string{"-only", "fig5"}); err == nil {
		t.Fatal("the -run form accepted the report-only -only flag")
	}
}

func TestParseArgsFaults(t *testing.T) {
	c, err := parseArgs("", []string{"-run", "fig3", "-faults", "disk-read-err:0.01;disk-lat:0.05", "-auditevery", "512"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.opts.Faults.String(); got != "disk-read-err:0.01;disk-lat:0.05:2ms" {
		t.Fatalf("parsed plan %q", got)
	}
	if c.opts.AuditEvery != 512 {
		t.Fatalf("auditEvery = %d", c.opts.AuditEvery)
	}

	if c, err := parseArgs("", nil); err != nil || !c.opts.Faults.Empty() {
		t.Fatalf("default faults: %+v, %v", c.opts.Faults, err)
	}
	for _, bad := range [][]string{
		{"-faults", "bogus:0.5"},
		{"-faults", "disk-read-err:2"},
		{"-auditevery", "-1"},
	} {
		if _, err := parseArgs("", bad); err == nil {
			t.Errorf("parseArgs(%v) succeeded, want error", bad)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(experiment.Registry) {
		t.Fatalf("empty filter: %d experiments, err %v", len(all), err)
	}
	one, err := selectExperiments("fig9")
	if err != nil || len(one) != 1 || one[0].ID != "fig9" {
		t.Fatalf("fig9 filter: %+v, err %v", one, err)
	}
	multi, err := selectExperiments("fig11, fig5")
	if err != nil || len(multi) != 2 || multi[0].ID != "fig11" || multi[1].ID != "fig5" {
		t.Fatalf("multi filter: %+v, err %v", multi, err)
	}
	if _, err := selectExperiments("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := selectExperiments("fig5,nope"); err == nil {
		t.Fatal("unknown id in list accepted")
	}
}
