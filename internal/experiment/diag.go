package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// This file writes crash-diagnostics bundles: one self-contained JSON
// file per failed cell, pairing the FailureRecord with every invocation
// parameter needed to replay it. vswapsim and vswapsimd wire it to
// -diagdir.

// DiagBundle is one crash-diagnostics file. Replaying the Replay command
// re-runs the failing experiment with the exact seed, scale and fault
// plan; the embedded failure's Label and Seed identify the cell inside
// it, and deterministic kills (panics, event-budget and stall breaches)
// reproduce byte-identically.
type DiagBundle struct {
	Version     int           `json:"version"`
	Command     string        `json:"command"`
	Experiment  string        `json:"experiment"`
	Seed        uint64        `json:"seed"`
	Scale       float64       `json:"scale"`
	Quick       bool          `json:"quick"`
	Faults      string        `json:"faults,omitempty"`
	Swapback    string        `json:"swapback,omitempty"`
	SwapPolicy  string        `json:"swappolicy,omitempty"`
	AuditEvery  int           `json:"audit_every,omitempty"`
	MaxEvents   uint64        `json:"max_events,omitempty"`
	CellTimeout string        `json:"cell_timeout,omitempty"`
	TraceRing   int           `json:"trace_ring,omitempty"`
	Replay      string        `json:"replay"`
	Failure     FailureRecord `json:"failure"`
}

// ReplayCommand renders the vswapsim invocation that reproduces a failing
// run deterministically: `-run <id>` for a registry experiment, or
// `run <path>` when scenarioPath is set. Optional flags appear only away
// from their defaults. -celltimeout is intentionally omitted: wall-clock
// kills are not reproducible, and replays should run to the
// deterministic failure (or to completion) instead.
func ReplayCommand(expID, scenarioPath string, o Options) string {
	o = o.WithDefaults()
	var b strings.Builder
	if scenarioPath != "" {
		fmt.Fprintf(&b, "go run ./cmd/vswapsim run %s", scenarioPath)
	} else {
		fmt.Fprintf(&b, "go run ./cmd/vswapsim -run %s", expID)
	}
	fmt.Fprintf(&b, " -seed %d -scale %g", o.Seed, o.Scale)
	if o.Quick {
		b.WriteString(" -quick")
	}
	if !o.Faults.Empty() {
		fmt.Fprintf(&b, " -faults '%s'", o.Faults.String())
	}
	backend, policy := o.tierNames()
	if backend != "" {
		fmt.Fprintf(&b, " -swapback %s", backend)
	}
	if policy != "" {
		fmt.Fprintf(&b, " -swappolicy %s", policy)
	}
	if o.AuditEvery > 0 {
		fmt.Fprintf(&b, " -auditevery %d", o.AuditEvery)
	}
	if o.MaxEvents > 0 {
		fmt.Fprintf(&b, " -maxevents %d", o.MaxEvents)
	}
	if o.TraceRing > 0 {
		fmt.Fprintf(&b, " -tracering %d", o.TraceRing)
	}
	return b.String()
}

// bundleFileName derives a stable, filesystem-safe name for a failure's
// bundle from the experiment id and the cell label.
func bundleFileName(expID string, f FailureRecord) string {
	sum := sha256.Sum256([]byte(f.Label + "\x00" + f.Kind))
	return fmt.Sprintf("%s-%s.json", expID, hex.EncodeToString(sum[:6]))
}

// WriteDiagBundles writes one bundle per failure into dir (created if
// missing) and returns the paths written. cmd names the program that
// wrote them, expID the experiment the failures belong to, and replay the
// command that reproduces them (see ReplayCommand).
func WriteDiagBundles(dir, cmd, expID, replay string, o Options, fails []FailureRecord) ([]string, error) {
	if len(fails) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o = o.WithDefaults()
	var paths []string
	for _, f := range fails {
		b := DiagBundle{
			Version:    1,
			Command:    cmd,
			Experiment: expID,
			Seed:       o.Seed,
			Scale:      o.Scale,
			Quick:      o.Quick,
			Faults:     o.Faults.String(),
			AuditEvery: o.AuditEvery,
			MaxEvents:  o.MaxEvents,
			TraceRing:  o.TraceRing,
			Replay:     replay,
			Failure:    f,
		}
		b.Swapback, b.SwapPolicy = o.tierNames()
		if o.CellTimeout > 0 {
			b.CellTimeout = o.CellTimeout.String()
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			return paths, err
		}
		p := filepath.Join(dir, bundleFileName(expID, f))
		if err := os.WriteFile(p, append(data, '\n'), 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
