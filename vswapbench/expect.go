package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expect.json records the report fingerprints the benchmark checks its
// outputs against: each simulation workload's document at its recorded
// seed and scale, and every daemon-jobs hit-set document (these do not
// depend on the workload seed).
//
//go:embed expect.json
var expectJSON []byte

type simExpect struct {
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	Fingerprint string  `json:"fingerprint"`
}

var (
	expectedSim    map[string]simExpect
	expectedHitSet []string
)

func init() {
	var e struct {
		Simulation map[string]simExpect `json:"simulation"`
		HitSet     []string             `json:"daemon_hit_set"`
	}
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		panic(fmt.Sprintf("expect.json: %v", err))
	}
	expectedSim, expectedHitSet = e.Simulation, e.HitSet
}
