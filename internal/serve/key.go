package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"sync"

	"vswapsim/internal/experiment"
)

// The cache key is a SHA-256 over the job's target (registry id, or the
// scenario text's digest), the canonical encoding of its knobs
// (experiment.Options.Key, so spellings that mean the same run —
// "disk-lat:0.05" vs "disk-lat:0.05:2ms", "" vs "hdd" — share one entry),
// and the code fingerprint of the binary that produced the output.
//
// Two knobs are deliberately EXCLUDED, and the key tests pin both:
//   - Parallel: results are byte-identical at any parallelism (the golden
//     and equivalence suites enforce it), so keying on it would fragment
//     the cache without ever changing a byte. Options.Key omits it.
//   - CellTimeoutMS: wall-clock kills are nondeterministic, and a job
//     that breached its wall budget (or failed any other way) is never
//     cached — so the timeout cannot influence any bytes that reach the
//     cache. key zeroes it before encoding.
const keyVersion = "vswapsimd-cache-v2"

// Key computes the content-addressed cache key for a request under the
// given code fingerprint. It never parses scenario text. A request whose
// knobs do not parse has no cache entry, and Key returns "" for it.
func Key(req JobRequest, fingerprint string) string {
	o, err := req.options()
	if err != nil {
		return ""
	}
	return key(req, o, fingerprint)
}

// key hashes req's target and o's knobs, minus the excluded CellTimeout.
func key(req JobRequest, o experiment.Options, fingerprint string) string {
	o.CellTimeout = 0
	h := sha256.New()
	field := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	field(keyVersion)
	field("code=" + fingerprint)
	if req.Scenario != "" {
		sum := sha256.Sum256([]byte(req.Scenario))
		field("scenario=" + hex.EncodeToString(sum[:]))
	} else {
		field("registry=" + req.ID)
	}
	field(o.Key())
	return hex.EncodeToString(h.Sum(nil))
}

var (
	fingerprintOnce sync.Once
	fingerprintVal  string
)

// CodeFingerprint identifies the code that computes results: the SHA-256
// of the running executable, truncated for key brevity. Rebuilding the
// binary therefore invalidates every cached entry — a version-mismatched
// entry is simply never looked up, so it can never be served. When the
// executable cannot be read (platform oddities), the Go toolchain version
// is the (coarser) fallback.
func CodeFingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprintVal = "go:" + runtime.Version()
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		fingerprintVal = "exe:" + hex.EncodeToString(h.Sum(nil))[:32]
	})
	return fingerprintVal
}
