package experiment

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"vswapsim/internal/fault"
	"vswapsim/internal/scenario"
	"vswapsim/internal/swapback"
)

// Options fields Key deliberately leaves out: output is byte-identical at
// any parallelism, and the context only stops runs.
var keyExclusions = map[string]bool{"Parallel": true, "Ctx": true, "CancelRun": true}

// keyPerturbations changes each knob Key encodes, one at a time.
var keyPerturbations = map[string]func(*Options){
	"Seed":        func(o *Options) { o.Seed = 7 },
	"Scale":       func(o *Options) { o.Scale = 0.5 },
	"Quick":       func(o *Options) { o.Quick = true },
	"TraceRing":   func(o *Options) { o.TraceRing = 64 },
	"Faults":      func(o *Options) { o.Faults = fault.MustParse("disk-read-err:0.01") },
	"Swapback":    func(o *Options) { o.Swapback = swapback.SSD },
	"SwapPolicy":  func(o *Options) { o.SwapPolicy = swapback.PolicyFlat },
	"AuditEvery":  func(o *Options) { o.AuditEvery = 100 },
	"MaxEvents":   func(o *Options) { o.MaxEvents = 1 << 20 },
	"CellTimeout": func(o *Options) { o.CellTimeout = time.Second },
}

// TestOptionsKeyFieldAccounting fails when Options gains an exported
// field that neither Key's perturbation table nor the exclusion list
// classifies — the same guard serve.TestKeyFieldAccounting keeps on
// JobRequest.
func TestOptionsKeyFieldAccounting(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if keyPerturbations[f.Name] == nil && !keyExclusions[f.Name] {
			t.Errorf("Options.%s is not accounted for: add it to Key (and keyPerturbations) or document its exclusion in keyExclusions", f.Name)
		}
	}
}

// TestOptionsKeyCoversEveryKnob: each encoded knob, perturbed alone,
// changes the key; the exclusions and equal-meaning spellings do not.
func TestOptionsKeyCoversEveryKnob(t *testing.T) {
	base := Options{}.Key()
	seen := map[string]string{base: "base"}
	for name, perturb := range keyPerturbations {
		var o Options
		perturb(&o)
		k := o.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("perturbing %s gives the key of %s", name, prev)
		}
		seen[k] = name
	}
	for name, o := range map[string]Options{
		"parallel":        {Parallel: 8},
		"default seed":    {Seed: 42},
		"default scale":   {Scale: 1},
		"default backend": {Swapback: swapback.HDD, SwapPolicy: swapback.PolicyWriteback},
	} {
		if o.Key() != base {
			t.Errorf("%s changed the key", name)
		}
	}
}

// TestBindFlagsRegistersEveryKnob: BindFlags registers exactly one flag
// per exported knob (named after the field), and nothing else.
func TestBindFlagsRegistersEveryKnob(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.BindFlags(fs)
	want := map[string]bool{}
	typ := reflect.TypeOf(o)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() && f.Name != "Ctx" && f.Name != "CancelRun" {
			want[strings.ToLower(f.Name)] = true
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !want[f.Name] {
			t.Errorf("BindFlags registers -%s, which names no Options knob", f.Name)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("BindFlags does not register -%s", name)
	}
	err := fs.Parse([]string{"-faults", "disk-lat:0.05", "-swapback", "zswap", "-swappolicy", "hotfirst"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Faults.String() != "disk-lat:0.05:2ms" || o.Swapback != swapback.Zswap || o.SwapPolicy != swapback.PolicyHot {
		t.Fatalf("typed flags parsed to %q/%s/%s", o.Faults, o.Swapback, o.SwapPolicy)
	}
}

// TestOptionsValidate: the range rules, at their edges.
func TestOptionsValidate(t *testing.T) {
	ok := Options{Scale: 16, Parallel: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("edge-valid options rejected: %v", err)
	}
	for name, o := range map[string]Options{
		"zero scale":           {Parallel: 1},
		"scale above 16":       {Scale: 16.5, Parallel: 1},
		"zero parallel":        {Scale: 1},
		"negative tracering":   {Scale: 1, Parallel: 1, TraceRing: -1},
		"negative auditevery":  {Scale: 1, Parallel: 1, AuditEvery: -1},
		"negative celltimeout": {Scale: 1, Parallel: 1, CellTimeout: -time.Second},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestForScenario: declared backends and policies conflict with explicit
// tiers and stay out of the returned options; declared faults and audit
// stride fill in only where unset.
func TestForScenario(t *testing.T) {
	hot := swapback.PolicyHot
	declared := &scenario.Scenario{
		Faults:     fault.MustParse("disk-lat:0.05"),
		AuditEvery: 4096,
		Backends:   []swapback.Kind{swapback.SSD},
		Policy:     &hot,
	}
	o, err := Options{}.ForScenario(declared)
	if err != nil {
		t.Fatal(err)
	}
	if o.Faults != declared.Faults || o.AuditEvery != 4096 {
		t.Fatalf("scenario faults/audit not folded in: %q/%d", o.Faults, o.AuditEvery)
	}
	if o.Swapback != swapback.HDD || o.SwapPolicy != swapback.PolicyWriteback {
		t.Fatalf("declared tier folded into the invocation's options: %s/%s", o.Swapback, o.SwapPolicy)
	}
	explicit := Options{Faults: fault.MustParse("swapin-fail:0.1"), AuditEvery: 7}
	if o, _ := explicit.ForScenario(declared); o.Faults != explicit.Faults || o.AuditEvery != 7 {
		t.Fatalf("explicit faults/audit overridden: %q/%d", o.Faults, o.AuditEvery)
	}
	if _, err := (Options{Swapback: swapback.SSD}).ForScenario(declared); err == nil {
		t.Error("explicit -swapback accepted against a declared backend axis")
	}
	if _, err := (Options{SwapPolicy: swapback.PolicyFlat}).ForScenario(declared); err == nil {
		t.Error("explicit -swappolicy accepted against a declared policy")
	}
	if _, err := (Options{Swapback: swapback.SSD, SwapPolicy: swapback.PolicyFlat}).ForScenario(&scenario.Scenario{}); err != nil {
		t.Errorf("explicit tiers rejected against a scenario that declares none: %v", err)
	}
}

// TestWithTier pins the one rule for a declared tier and policy, the
// rule faults: and audit_every: follow: an option set away from its
// default wins, otherwise the declaration applies. clusterN runs
// cluster.yaml's SSD tier by default and the invocation's zswap when
// asked; a declared list of tiers is left to the single-mode grid.
func TestWithTier(t *testing.T) {
	sc := clusterScenario()
	if got := (Options{}).withTier(sc).Swapback; got != swapback.SSD {
		t.Errorf("default options run cluster.yaml on %s, want ssd", got)
	}
	if got := (Options{Swapback: swapback.Zswap}).withTier(sc).Swapback; got != swapback.Zswap {
		t.Errorf("-swapback zswap runs cluster.yaml on %s, want zswap", got)
	}
	hot := swapback.PolicyHot
	declared := &scenario.Scenario{Policy: &hot}
	if got := (Options{}).withTier(declared).SwapPolicy; got != swapback.PolicyHot {
		t.Errorf("default options run a hotfirst declaration under %s", got)
	}
	if got := (Options{SwapPolicy: swapback.PolicyFlat}).withTier(declared).SwapPolicy; got != swapback.PolicyFlat {
		t.Errorf("-swappolicy flat runs a hotfirst declaration under %s", got)
	}
	if got := (Options{}).withTier(&scenario.Scenario{}); got.Swapback != swapback.HDD || got.SwapPolicy != swapback.PolicyWriteback {
		t.Errorf("no declaration moved the defaults to %s/%s", got.Swapback, got.SwapPolicy)
	}
	axis := &scenario.Scenario{Backends: []swapback.Kind{swapback.SSD, swapback.Zswap}}
	if got := (Options{}).withTier(axis).Swapback; got != swapback.HDD {
		t.Errorf("a declared tier axis replaced the invocation tier with %s", got)
	}
}

// memoOpts is the small fig5 configuration the memo tests run.
func memoOpts() Options { return Options{Seed: 42, Scale: 0.0625, Quick: true, Parallel: 1} }

// TestPbzipMemoKeysOnBackend: in one invocation, fig5 and fig11 at hdd
// share one sweep's cells, and fig5 at ssd after them must give the fresh
// ssd answer, not the memoized hdd cells.
func TestPbzipMemoKeysOnBackend(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"fig5", "fig11"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	fig5 := exps[0].Run
	hdd := memoOpts()
	hdd.Parallel = 2 // fig5 and fig11 reach the memo at once
	hdd = hdd.normalized()
	ssd := hdd // shares hdd's invocation and memo
	ssd.Swapback = swapback.SSD
	hddRun := RunAll(exps, hdd, nil)[0]
	afterHDD := fingerprint(fig5(ssd))
	if n, want := len(hdd.memo.entries), 2*len(hddRun.Report.Runs); n != want {
		t.Fatalf("the invocation's memo holds %d cells, want %d (the hdd and the ssd sweep)", n, want)
	}
	fresh := memoOpts()
	fresh.Swapback = swapback.SSD
	freshFP := fingerprint(fig5(fresh))
	if freshFP == hddRun.Report.Fingerprint {
		t.Fatal("the ssd and hdd sweeps coincide; the test cannot tell them apart")
	}
	if afterHDD != freshFP {
		t.Fatalf("fig5 at ssd after hdd = %s, fresh ssd = %s: the memo served the hdd sweep", afterHDD[:12], freshFP[:12])
	}
}

// TestPbzipMemoKeysOnTraceRing: a traced fig5 after an untraced one in the
// same invocation must carry trace tails in every run record.
func TestPbzipMemoKeysOnTraceRing(t *testing.T) {
	e, err := ByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	o := memoOpts().normalized() // traced shares o's invocation and memo
	RunAll([]Experiment{e}, o, nil)
	traced := o
	traced.TraceRing = 64
	runs := RunAll([]Experiment{e}, traced, nil)[0].Report.Runs
	if len(runs) == 0 {
		t.Fatal("no run records")
	}
	for _, r := range runs {
		if len(r.Report.Trace) == 0 {
			t.Fatalf("run %s has no trace tail: the memo served the untraced sweep", r.Label)
		}
	}
}
