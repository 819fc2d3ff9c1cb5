package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vswapsim/internal/serve"
)

// TestCLIValidationConsistency pins flag hygiene: every entry point
// (-run form, the run subcommand and the report subcommand) rejects
// -parallel <= 0 and -auditevery < 0 the same way — exit 2 plus the
// one-line usage hint.
func TestCLIValidationConsistency(t *testing.T) {
	scenarioPath := filepath.Join("..", "..", "scenarios", "fig3.yaml")
	bad := [][]string{
		{"-parallel", "0"},
		{"-parallel", "-4"},
		{"-auditevery", "-1"},
	}
	for _, flags := range bad {
		for _, entry := range [][]string{
			append([]string{"-run", "fig3"}, flags...),
			append([]string{"run", scenarioPath}, flags...),
			append([]string{"report", "-only", "fig3"}, flags...),
		} {
			var stdout, stderr bytes.Buffer
			if code := run(entry, &stdout, &stderr); code != exitUsage {
				t.Errorf("run(%v) = %d, want %d", entry, code, exitUsage)
			}
			msg := strings.ToLower(stderr.String())
			if !strings.Contains(msg, "usage") {
				t.Errorf("run(%v) stderr lacks the usage hint: %q", entry, stderr.String())
			}
			if !strings.Contains(msg, "invalid") {
				t.Errorf("run(%v) stderr lacks the offending flag: %q", entry, stderr.String())
			}
		}
	}
}

// startServeBackend runs an in-process daemon core for -server tests.
func startServeBackend(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{CacheDir: t.TempDir(), Fingerprint: "test:climode"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts.URL
}

// TestServerModeRegistry: `vswapsim -run ... -server URL` round-trips a
// registry experiment through the daemon; the second (cached) run prints
// byte-identical -json output.
func TestServerModeRegistry(t *testing.T) {
	url := startServeBackend(t)
	args := []string{"-run", "tab1", "-quick", "-server", url}

	var text, stderr bytes.Buffer
	if code := run(args, &text, &stderr); code != exitOK {
		t.Fatalf("server-mode run = %d, stderr %s", code, stderr.String())
	}
	out := text.String()
	if !strings.Contains(out, "(tab1 served by "+url) || !strings.Contains(out, "cache miss") {
		t.Fatalf("cold run output lacks the serve trailer:\n%s", out)
	}
	if !strings.Contains(out, "Lines of code of VSwapper") {
		t.Fatalf("server-mode text output lacks the rendered table:\n%s", out)
	}

	jsonArgs := append(args, "-json")
	var cold, warm bytes.Buffer
	if code := run(jsonArgs, &cold, &stderr); code != exitOK {
		t.Fatalf("cold -json run = %d", code)
	}
	if code := run(jsonArgs, &warm, &stderr); code != exitOK {
		t.Fatalf("warm -json run = %d", code)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm -server -json output differs from cold")
	}
	var hit bytes.Buffer
	if code := run(args, &hit, &stderr); code != exitOK {
		t.Fatalf("warm text run = %d", code)
	}
	if !strings.Contains(hit.String(), "cache hit") {
		t.Fatalf("warm run not served from cache:\n%s", hit.String())
	}
}

// TestServerModeScenario: the run subcommand ships scenario YAML to the
// daemon inline and renders the returned document.
func TestServerModeScenario(t *testing.T) {
	url := startServeBackend(t)
	path := filepath.Join(t.TempDir(), "tiny.yaml")
	yaml := `scenario: tinysrv
title: "tiny server-mode scenario"
mode: single
fleet:
  memory_mb: 128
  actual_mb: 64
schemes:
  - name: baseline
workload:
  kind: seqread
  file_mb: 8
table:
  title: "runtime [sec]"
`
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"run", path, "-server", url, "-json"}
	var cold, warm, stderr bytes.Buffer
	if code := run(args, &cold, &stderr); code != exitOK {
		t.Fatalf("cold scenario server run = %d, stderr %s", code, stderr.String())
	}
	if code := run(args, &warm, &stderr); code != exitOK {
		t.Fatalf("warm scenario server run = %d", code)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm scenario -server output differs from cold")
	}
	if !strings.Contains(cold.String(), `"tinysrv"`) {
		t.Fatalf("document lacks the scenario id:\n%s", cold.String())
	}
}

// TestServerModeRejectsDiagdir: diag bundles are written daemon-side;
// combining -server with -diagdir is a usage error, not a silent no-op.
func TestServerModeRejectsDiagdir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "tab1", "-server", "http://127.0.0.1:1", "-diagdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != exitUsage {
		t.Fatalf("run = %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr.String(), "-diagdir") {
		t.Fatalf("stderr does not explain the conflict: %s", stderr.String())
	}
}

// TestReportUsageErrorsConsistent: the report form rejects budget and
// concurrency misuse like the other forms, and the outputs that stay
// local (-csv, -diagdir, a combined -json document) are usage errors with
// -server.
func TestReportUsageErrorsConsistent(t *testing.T) {
	cases := [][]string{
		{"-parallel", "0"},
		{"-parallel", "-4"},
		{"-auditevery", "-1"},
		{"-server", "http://x", "-json", "-"},
		{"-server", "http://x", "-json"},
		{"-server", "http://x", "-csv", "dir"},
		{"-server", "http://x", "-diagdir", "dir"},
	}
	for _, args := range cases {
		args = append([]string{"report"}, args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
		if msg := strings.ToLower(stderr.String()); !strings.Contains(msg, "usage") {
			t.Errorf("run(%v) stderr lacks the usage hint: %q", args, stderr.String())
		}
	}
}

// TestServerModeSweep: a -server report renders each selected experiment
// from daemon documents, and a repeat sweep is served from the cache.
func TestServerModeSweep(t *testing.T) {
	url := startServeBackend(t)
	args := []string{"report", "-only", "tab1", "-quick", "-server", url}
	var cold, stderr bytes.Buffer
	if code := run(args, &cold, &stderr); code != exitOK {
		t.Fatalf("cold sweep = %d, stderr %s", code, stderr.String())
	}
	out := cold.String()
	for _, want := range []string{
		"VSwapper reproduction report",
		"Lines of code of VSwapper",
		"(tab1 served by " + url + ": job j-1, cache miss)",
		"total wall time",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("cold sweep output lacks %q:\n%s", want, out)
		}
	}

	var warm bytes.Buffer
	if code := run(args, &warm, &stderr); code != exitOK {
		t.Fatalf("warm sweep = %d", code)
	}
	if !strings.Contains(warm.String(), "cache hit") {
		t.Fatalf("warm sweep not served from cache:\n%s", warm.String())
	}
}

// TestServerModeScenarioConflict: a -swapback/-swappolicy that fights the
// scenario's own declaration is the same usage error (exit 2) with
// -server as locally — rejected before anything is submitted, so the
// unreachable server below is never contacted.
func TestServerModeScenarioConflict(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "backends.yaml")
	policy := filepath.Join(t.TempDir(), "policy.yaml")
	doc := `scenario: policyconflict
title: "declares its tiering policy"
mode: single
policy: hotfirst
fleet:
  memory_mb: 128
  actual_mb: 64
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 8
table:
  title: "runtime [sec]"
`
	if err := os.WriteFile(policy, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"run", path, "-quick", "-swapback", "ssd"},
		{"run", path, "-quick", "-swapback", "ssd", "-server", "http://127.0.0.1:1"},
		{"run", policy, "-quick", "-swappolicy", "flat"},
		{"run", policy, "-quick", "-swappolicy", "flat", "-server", "http://127.0.0.1:1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d; stderr %s", args, code, exitUsage, stderr.String())
		}
		if !strings.Contains(stderr.String(), "conflicts with the scenario") {
			t.Errorf("run(%v) stderr does not explain the conflict: %s", args, stderr.String())
		}
	}
}

// TestServerModeScenarioFaultsMatchLocal: a served -json run prints the
// bytes a local run prints, on a cache miss and on a hit, for a registry
// id and for a scenario whose top-level faults: and audit_every: reach
// the daemon's document exactly as they reach a local run's.
func TestServerModeScenarioFaultsMatchLocal(t *testing.T) {
	url := startServeBackend(t)
	path := filepath.Join(t.TempDir(), "faulty.yaml")
	yaml := `scenario: faultysrv
title: "scenario-level fault plan"
mode: single
faults: "disk-lat:0.05:2ms"
audit_every: 4096
fleet:
  memory_mb: 128
  actual_mb: 64
schemes:
  - name: baseline
workload:
  kind: seqread
  file_mb: 8
table:
  title: "runtime [sec]"
`
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, target := range [][]string{
		{"-run", "fig3", "-quick", "-scale", "0.125"},
		{"run", path},
	} {
		docOf := func(extra ...string) []byte {
			t.Helper()
			var stdout, stderr bytes.Buffer
			args := append(append(append([]string(nil), target...), "-json"), extra...)
			if code := run(args, &stdout, &stderr); code != exitOK {
				t.Fatalf("run(%v) = %d, stderr %s", args, code, stderr.String())
			}
			return stdout.Bytes()
		}
		local := docOf()
		for _, pass := range []string{"miss", "hit"} {
			if served := docOf("-server", url); !bytes.Equal(local, served) {
				t.Fatalf("%v: the document served on a cache %s differs from the local one:\nlocal\n%s\nserved\n%s",
					target, pass, local, served)
			}
		}
		if target[0] == "run" && !bytes.Contains(local, []byte(`"faults": "disk-lat:0.05:2ms"`)) {
			t.Fatalf("local document header lacks the scenario's fault plan:\n%s", local)
		}
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"serve_cache_misses 2\n", "serve_cache_hits 2\n"} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("the daemon's metrics lack %q: every target must miss once and hit once\n%s", want, metrics)
		}
	}
}

// TestServerModeMalformedDocuments: a served document is outside input.
// A row longer than its table's columns still renders, and a null entry
// in experiments is a bad document (exit 1), with and without -json.
func TestServerModeMalformedDocuments(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		args      []string
		code      int
		stdout    string // a line the text output must hold
	}{
		{"long row", `{"experiments":[{"id":"x","title":"t","tables":[{"columns":["a"],"rows":[["x","y"]]}]}]}`,
			nil, exitOK, "x  y\n"},
		{"long row json", `{"experiments":[{"id":"x","title":"t","tables":[{"columns":["a"],"rows":[["x","y"]]}]}]}`,
			[]string{"-json"}, exitOK, `"x",`},
		{"null entry", `{"experiments":[null]}`, nil, exitFailures, ""},
		{"null entry json", `{"experiments":[null]}`, []string{"-json"}, exitFailures, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(serve.JobStatus{JobID: "j-1", State: serve.StateDone, Document: json.RawMessage(c.doc)})
			}))
			defer ts.Close()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-run", "tab1", "-server", ts.URL}, c.args...)
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("run(%v) = %d, want %d; stderr %s", args, code, c.code, stderr.String())
			}
			if c.code == exitOK && !strings.Contains(stdout.String(), c.stdout) {
				t.Fatalf("output lacks %q:\n%s", c.stdout, stdout.String())
			}
			if c.code != exitOK && !strings.Contains(stderr.String(), "bad document from server") {
				t.Fatalf("stderr does not reject the document: %s", stderr.String())
			}
		})
	}
}
