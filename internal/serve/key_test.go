package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// jobRequestFields lists JobRequest's field names by reflection, so the
// accounting test notices new fields automatically.
func jobRequestFields() []string {
	t := reflect.TypeOf(JobRequest{})
	out := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		out = append(out, t.Field(i).Name)
	}
	return out
}

const testFingerprint = "test:fingerprint"

// baseKeyRequest is the reference point every knob test perturbs.
func baseKeyRequest() JobRequest {
	return JobRequest{ID: "fig3"}
}

// TestKeyCoversEveryOutputKnob enumerates every knob that can influence a
// job's output bytes and asserts each one, perturbed alone, changes the
// cache key. A knob missing from this list (or from Key) would let two
// different runs share one cache entry — the worst failure mode a result
// cache can have. Keep this table in sync with JobRequest: the
// completeness check below fails when a new field is added without a
// decision here.
func TestKeyCoversEveryOutputKnob(t *testing.T) {
	base := Key(baseKeyRequest(), testFingerprint)
	perturbations := map[string]JobRequest{
		"id":         {ID: "fig4"},
		"scenario":   {Scenario: "scenario: x\ntitle: t\nmode: single\nfleet: {memory_mb: 512, actual_mb: 100}\nschemes: [{name: s}]\nworkload: {kind: seqread, file_mb: 10}\n"},
		"seed":       {ID: "fig3", Seed: 7},
		"scale":      {ID: "fig3", Scale: 2.0},
		"quick":      {ID: "fig3", Quick: true},
		"tracering":  {ID: "fig3", TraceRing: 64},
		"faults":     {ID: "fig3", Faults: "disk-read-err:0.01"},
		"swapback":   {ID: "fig3", Swapback: "ssd"},
		"swappolicy": {ID: "fig3", SwapPolicy: "tiered"},
		"auditevery": {ID: "fig3", AuditEvery: 100},
		"maxevents":  {ID: "fig3", MaxEvents: 1 << 20},
	}
	seen := map[string]string{"base": base}
	for name, req := range perturbations {
		k := Key(req, testFingerprint)
		if k == base {
			t.Errorf("perturbing %q did not change the cache key", name)
		}
		for prev, pk := range seen {
			if pk == k {
				t.Errorf("perturbations %q and %q collide", name, prev)
			}
		}
		seen[name] = k
	}
	// The code fingerprint is a key input too: a rebuilt binary must miss.
	if k := Key(baseKeyRequest(), "test:other"); k == base {
		t.Error("changing the code fingerprint did not change the cache key")
	}
}

// TestKeyFieldAccounting fails when JobRequest grows a field that neither
// the perturbation table above nor the exclusion list below accounts for.
func TestKeyFieldAccounting(t *testing.T) {
	accounted := map[string]bool{
		// Key inputs (perturbation-tested above):
		"ID": true, "Scenario": true, "Seed": true, "Scale": true,
		"Quick": true, "TraceRing": true, "Faults": true,
		"Swapback": true, "SwapPolicy": true, "AuditEvery": true,
		"MaxEvents": true,
		// Deliberate exclusions (collision-tested below):
		"Parallel": true, "CellTimeoutMS": true,
	}
	for _, f := range jobRequestFields() {
		if !accounted[f] {
			t.Errorf("JobRequest.%s is not accounted for in the cache-key tests: add it to Key (and the perturbation table) or document its exclusion", f)
		}
	}
}

// TestKeyExcludesExecutionHints pins the deliberate collisions: Parallel
// and CellTimeoutMS must NOT enter the key. Parallelism never changes the
// output bytes (the golden and equivalence suites prove it), and
// timed-out runs are never cached, so keying on either would only
// fragment the cache.
func TestKeyExcludesExecutionHints(t *testing.T) {
	base := Key(baseKeyRequest(), testFingerprint)
	for name, req := range map[string]JobRequest{
		"parallel=1":          {ID: "fig3", Parallel: 1},
		"parallel=8":          {ID: "fig3", Parallel: 8},
		"celltimeout_ms=5000": {ID: "fig3", CellTimeoutMS: 5000},
		"both":                {ID: "fig3", Parallel: 4, CellTimeoutMS: 250},
	} {
		if k := Key(req, testFingerprint); k != base {
			t.Errorf("%s changed the cache key: execution hints must not fragment the cache", name)
		}
	}
}

// TestKeyCanonicalization: spellings that mean the same run share a key.
func TestKeyCanonicalization(t *testing.T) {
	pairs := []struct {
		name string
		a, b JobRequest
	}{
		{"fault plan default duration",
			JobRequest{ID: "fig3", Faults: "disk-lat:0.05"},
			JobRequest{ID: "fig3", Faults: "disk-lat:0.05:2ms"}},
		{"default backend spelled out",
			JobRequest{ID: "fig3"},
			JobRequest{ID: "fig3", Swapback: "hdd"}},
		{"default policy spelled out",
			JobRequest{ID: "fig3"},
			JobRequest{ID: "fig3", SwapPolicy: "writeback"}},
		{"default seed spelled out",
			JobRequest{ID: "fig3"},
			JobRequest{ID: "fig3", Seed: 42}},
		{"default scale spelled out",
			JobRequest{ID: "fig3"},
			JobRequest{ID: "fig3", Scale: 1.0}},
	}
	for _, p := range pairs {
		if Key(p.a, testFingerprint) != Key(p.b, testFingerprint) {
			t.Errorf("%s: equal-meaning requests got different keys", p.name)
		}
	}
}

// TestKeyIsHex: keys must be lowercase sha256 hex — the cache uses them
// as file names without escaping — and a request whose knobs do not
// parse has no key at all.
func TestKeyIsHex(t *testing.T) {
	k := Key(baseKeyRequest(), testFingerprint)
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k) {
		t.Fatalf("key %q is not 64 lowercase hex chars", k)
	}
	for _, bad := range []JobRequest{
		{ID: "fig3", Faults: "frobnicate:1"},
		{ID: "fig3", Swapback: "floppy"},
		{ID: "fig3", SwapPolicy: "lifo"},
	} {
		if k := Key(bad, testFingerprint); k != "" {
			t.Errorf("Key(%+v) = %q, want none", bad, k)
		}
	}
}

// TestCodeFingerprint: stable within a process, and one of the three
// forms: the Go build ID's content ID, the executable's hash, or a value
// random per process. The toolchain version alone is never enough.
func TestCodeFingerprint(t *testing.T) {
	fp := CodeFingerprint()
	if fp != CodeFingerprint() {
		t.Fatal("CodeFingerprint is not stable")
	}
	form := regexp.MustCompile(`^(build:[A-Za-z0-9_-]+|exe:[0-9a-f]{32}|run:[0-9a-f]{32})$`)
	if !form.MatchString(fp) {
		t.Fatalf("unexpected fingerprint form %q", fp)
	}
}

// TestCodeFingerprintIsBuildID: on linux the test binary, which the go
// command wrote, is fingerprinted by the content ID in its build ID.
func TestCodeFingerprintIsBuildID(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the build ID note is read from ELF executables")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goCmd, "tool", "buildid", exe).Output()
	if err != nil {
		t.Fatalf("go tool buildid: %v", err)
	}
	id := strings.TrimSpace(string(out))
	want := "build:" + id[strings.LastIndexByte(id, '/')+1:]
	if fp := CodeFingerprint(); fp != want {
		t.Fatalf("CodeFingerprint() = %q, want %q (build ID %s)", fp, want, id)
	}
}

// elfNote lays out one ELF note as the Go linker writes it: name and
// descriptor each padded to 4 bytes.
func elfNote(name string, typ uint32, desc string) []byte {
	pad := func(b []byte) []byte {
		for len(b)%4 != 0 {
			b = append(b, 0)
		}
		return b
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(desc)))
	b = binary.LittleEndian.AppendUint32(b, typ)
	b = pad(append(b, name...))
	return pad(append(b, desc...))
}

func TestGoBuildIDNote(t *testing.T) {
	full := elfNote("Go\x00\x00", 4, "act1/cont1/act2/cont2")
	for _, tc := range []struct {
		name string
		note []byte
		want string // "" = no build ID
	}{
		{"four parts", full, "cont2"},
		{"two parts", elfNote("Go\x00\x00", 4, "act/cont"), "cont"},
		{"name without padding", elfNote("Go\x00", 4, "act/cont"), "cont"},
		{"no slash", elfNote("Go\x00\x00", 4, "handset"), ""},
		{"empty last part", elfNote("Go\x00\x00", 4, "act/"), ""},
		{"other name", elfNote("GNU\x00", 4, "act/cont"), ""},
		{"other type", elfNote("Go\x00\x00", 3, "act/cont"), ""},
		{"truncated descriptor", full[:len(full)-8], ""},
		{"truncated header", full[:8], ""},
	} {
		id, ok := goBuildID(tc.note, binary.LittleEndian)
		if ok != (tc.want != "") || id != tc.want {
			t.Errorf("%s: goBuildID = %q, %v; want %q", tc.name, id, ok, tc.want)
		}
	}
}

// TestFingerprintFallbacks: a file without a Go build ID note is hashed,
// and a file that cannot be read gets a value no other process shares.
func TestFingerprintFallbacks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plain")
	data := []byte("#!/bin/sh\necho not a Go binary\n")
	if err := os.WriteFile(path, data, 0o755); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if fp, want := fingerprintFile(path), "exe:"+hex.EncodeToString(sum[:])[:32]; fp != want {
		t.Fatalf("note-less file: %q, want %q", fp, want)
	}
	missing := filepath.Join(dir, "missing")
	a, b := fingerprintFile(missing), fingerprintFile(missing)
	run := regexp.MustCompile(`^run:[0-9a-f]{32}$`)
	if !run.MatchString(a) || !run.MatchString(b) || a == b {
		t.Fatalf("unreadable file: %q then %q, want two different run: values", a, b)
	}
}
