package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// forms lists every command form that takes flags ("" is -list/-run).
var forms = []string{"", formRun, formReport}

// registeredFlags returns the name of every flag one command form
// registers.
func registeredFlags(t *testing.T, form string) []string {
	t.Helper()
	var c cliConfig
	fs := newFlagSet(form, &c)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no flags registered")
	}
	return names
}

// TestUsageMentionsEveryFlag pins -h output against flag-registration
// drift: every flag a form registers must appear in that form's rendered
// usage, and the header must list all five command forms.
func TestUsageMentionsEveryFlag(t *testing.T) {
	for _, form := range forms {
		var c cliConfig
		fs := newFlagSet(form, &c)
		var buf bytes.Buffer
		fs.SetOutput(&buf)
		fs.Usage()
		usage := buf.String()
		for _, name := range registeredFlags(t, form) {
			if !strings.Contains(usage, "-"+name) {
				t.Errorf("vswapsim %s usage output does not mention registered flag -%s", form, name)
			}
		}
		for _, line := range []string{
			"vswapsim -list",
			"vswapsim -run <id>",
			"vswapsim run <scenario.yaml>",
			"vswapsim report [-only <ids>] [-o <file>] [-csv <dir>]",
			"vswapsim validate <scenario.yaml>",
		} {
			if !strings.Contains(usage, line) {
				t.Errorf("usage header does not list command form %q", line)
			}
		}
	}
}

// TestREADMEDocumentsEveryFlag keeps the README's flag table honest: a
// flag added to any form without a README row fails here, and the report
// form must be documented too.
func TestREADMEDocumentsEveryFlag(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, form := range forms {
		for _, name := range registeredFlags(t, form) {
			if !strings.Contains(readme, "`-"+name) {
				t.Errorf("README.md does not document flag -%s", name)
			}
		}
	}
	if !strings.Contains(readme, "vswapsim run scenarios/") {
		t.Error("README.md quickstart does not lead with a scenario run")
	}
	if !strings.Contains(readme, "vswapsim report") {
		t.Error("README.md does not document the report form")
	}
}

// TestScenarioCLIEquivalence pins that the registry id and the scenario
// file reach one definition: the fig3 entry runs the embedded
// scenarios/fig3.yaml, so `vswapsim run scenarios/fig3.yaml -json` must
// write the very bytes `vswapsim -run fig3 -json` writes, through the
// real CLI path (document header included — same -parallel, so headers
// agree too).
func TestScenarioCLIEquivalence(t *testing.T) {
	common := []string{"-json", "-quick", "-scale", "0.125", "-seed", "42", "-parallel", "1"}
	var yamlOut, idOut, errBuf bytes.Buffer

	args := append([]string{"run", filepath.Join("..", "..", "scenarios", "fig3.yaml")}, common...)
	if code := run(args, &yamlOut, &errBuf); code != exitOK {
		t.Fatalf("run %v exited %d: %s", args, code, errBuf.String())
	}
	args = append([]string{"-run", "fig3"}, common...)
	if code := run(args, &idOut, &errBuf); code != exitOK {
		t.Fatalf("run %v exited %d: %s", args, code, errBuf.String())
	}
	if !bytes.Equal(yamlOut.Bytes(), idOut.Bytes()) {
		t.Fatalf("scenario JSON (%d bytes) differs from registry fig3 JSON (%d bytes)",
			yamlOut.Len(), idOut.Len())
	}
}

func TestValidateCmdExitCodes(t *testing.T) {
	good, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(good) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	var out, errBuf bytes.Buffer
	if code := run(append([]string{"validate"}, good...), &out, &errBuf); code != exitOK {
		t.Fatalf("validate %v exited %d: %s", good, code, errBuf.String())
	}
	for _, p := range good {
		if !strings.Contains(out.String(), "ok "+p) {
			t.Errorf("validate output missing ok line for %s:\n%s", p, out.String())
		}
	}
	// A cluster file's grid compares remediation policies, not schemes.
	clusterLine := "ok " + filepath.Join("..", "..", "scenarios", "cluster.yaml") +
		" (cluster, cluster mode, 4 remediation policies)\n"
	if !strings.Contains(out.String(), clusterLine) {
		t.Errorf("validate output lacks %q:\n%s", clusterLine, out.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.yaml")
	badDoc := `scenario: x
title: t
mode: single
bogus: 1
fleet:
  memory_mb: 512
  actual_mb: 100
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 200
table:
  title: t
`
	if err := os.WriteFile(bad, []byte(badDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"validate", good[0], bad}, &out, &errBuf); code != exitFailures {
		t.Fatalf("validate with one bad file exited %d, want %d", code, exitFailures)
	}
	if !strings.Contains(errBuf.String(), "INVALID "+bad) ||
		!strings.Contains(errBuf.String(), "bogus") {
		t.Errorf("validate stderr does not name the bad file and key:\n%s", errBuf.String())
	}

	if code := run([]string{"validate"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("validate with no args exited %d, want %d", code, exitUsage)
	}
}

func TestRunScenarioCmdUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"run"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("bare 'run' exited %d, want %d", code, exitUsage)
	}
	errBuf.Reset()
	if code := run([]string{"run", "no-such-file.yaml"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("run on missing file exited %d, want %d", code, exitUsage)
	}
	errBuf.Reset()
	path := filepath.Join("..", "..", "scenarios", "fig3.yaml")
	if code := run([]string{"run", path, "-run", "fig5"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("run <scenario> with -run exited %d, want %d", code, exitUsage)
	}

	// A scenario whose assertion cannot hold must exit with code 1.
	failing := filepath.Join(t.TempDir(), "must-fail.yaml")
	doc := `scenario: must-fail
title: "assertion failure exit-code probe"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 256
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 200
  iterations: 1
  quick_iterations: 1
table:
  title: "runtime [sec]"
assertions:
  - counter: workload.killed
    scheme: baseline
    op: "=="
    value: 1
`
	if err := os.WriteFile(failing, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	code := run([]string{"run", failing, "-quick", "-scale", "0.125", "-parallel", "1"}, &out, &errBuf)
	if code != exitFailures {
		t.Fatalf("failing-assertion scenario exited %d, want %d\nstdout: %s\nstderr: %s",
			code, exitFailures, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "ASSERTION FAILED") {
		t.Errorf("report does not surface the failed assertion:\n%s", out.String())
	}
}
