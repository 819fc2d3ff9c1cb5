package serve

import (
	"crypto/rand"
	"crypto/sha256"
	"debug/elf"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"sync"
	"time"

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

// CodeFingerprint identifies the code that computes results, so a
// version-mismatched cache entry is never looked up and can never be
// served. For a binary the go command wrote it is build:<content ID>, the
// last part of the build ID in the executable's .note.go.buildid: the
// first 120 bits of the SHA-256 of the linked file, taken with the ID's
// own bytes zeroed. Reading it takes the ELF headers, not the whole file,
// and it changes with every rebuild that emits different bytes; a binary
// edited after the go command wrote it keeps its ID. An executable
// without the note (non-ELF platforms, -ldflags=-buildid=) is hashed:
// exe:<sha256[:32]>. One that cannot be read gets a fingerprint random
// per process, so it shares no cache entries with another build.
func CodeFingerprint() string {
	fingerprintOnce.Do(func() {
		if exe, err := os.Executable(); err == nil {
			fingerprintVal = fingerprintFile(exe)
		} else {
			fingerprintVal = runFingerprint()
		}
	})
	return fingerprintVal
}

// fingerprintFile is CodeFingerprint for the executable at path.
func fingerprintFile(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return runFingerprint()
	}
	defer f.Close()
	if id, ok := elfBuildID(f); ok {
		return "build:" + id
	}
	if fp, err := hashFingerprint(f); err == nil {
		return fp
	}
	return runFingerprint()
}

// hashFingerprint is the fingerprint of an executable without a Go build
// ID: the first 32 hex digits of its SHA-256.
func hashFingerprint(r io.Reader) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return "exe:" + hex.EncodeToString(h.Sum(nil))[:32], nil
}

// runFingerprint is a fingerprint no other process shares: run:<hex of 16
// random bytes>.
func runFingerprint() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: the clock and the pid still set this process apart.
		binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(b[8:], uint64(os.Getpid()))
	}
	return "run:" + hex.EncodeToString(b[:])
}

// elfBuildID returns the content ID from r's .note.go.buildid section,
// reading only the ELF headers and that section.
func elfBuildID(r io.ReaderAt) (string, bool) {
	ef, err := elf.NewFile(r)
	if err != nil {
		return "", false
	}
	sec := ef.Section(".note.go.buildid")
	if sec == nil {
		return "", false
	}
	note, err := sec.Data()
	if err != nil {
		return "", false
	}
	return goBuildID(note, ef.ByteOrder)
}

// goBuildIDType is the ELF note type the Go linker gives its build ID.
const goBuildIDType = 4

// goBuildID parses one ELF note: a 12-byte header (name size, descriptor
// size, type), the name and the descriptor, each padded to 4 bytes. For
// the Go build ID note, named "Go" with type 4, the descriptor is
// actionID/contentID[/actionID/contentID], and goBuildID returns its last
// part, the link's content ID.
func goBuildID(note []byte, order binary.ByteOrder) (string, bool) {
	if len(note) < 12 {
		return "", false
	}
	nameEnd := 12 + uint64(order.Uint32(note))
	descStart := (nameEnd + 3) &^ 3
	descEnd := descStart + uint64(order.Uint32(note[4:]))
	if order.Uint32(note[8:]) != goBuildIDType || descEnd > uint64(len(note)) ||
		strings.TrimRight(string(note[12:nameEnd]), "\x00") != "Go" {
		return "", false
	}
	desc := string(note[descStart:descEnd])
	i := strings.LastIndexByte(desc, '/')
	if i < 0 || i == len(desc)-1 {
		return "", false
	}
	return desc[i+1:], true
}
