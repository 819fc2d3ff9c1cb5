package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

var fingerprintSink string

// BenchmarkCodeFingerprint measures a server's start-up fingerprint of the
// test binary both ways: reading the Go build ID note, and hashing the
// whole file, as a binary without the note is.
func BenchmarkCodeFingerprint(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("note", func(b *testing.B) {
		if fp := fingerprintFile(exe); !strings.HasPrefix(fp, "build:") {
			b.Skipf("no Go build ID note in %s (fingerprint %s)", exe, fp)
		}
		for i := 0; i < b.N; i++ {
			fingerprintSink = fingerprintFile(exe)
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(exe)
			if err != nil {
				b.Fatal(err)
			}
			fingerprintSink, err = hashFingerprint(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHit sends POST /jobs cache hits through Server.Handler(): the
// request decode, compile and key, the cache read and the status
// response carrying the stored document. The documents are daemon-jobs'
// fig3 and its largest, fig12. The server keeps every job record it
// served, so memory grows with b.N; run it with a fixed -benchtime.
func BenchmarkHit(b *testing.B) {
	for _, id := range []string{"fig3", "fig12"} {
		b.Run(id, func(b *testing.B) {
			s, err := New(Config{CacheDir: b.TempDir(), Fingerprint: testFingerprint})
			if err != nil {
				b.Fatal(err)
			}
			req := JobRequest{ID: id, Seed: 42, Scale: 0.0625, Quick: true}
			c, err := compile(req, s.cfg)
			if err != nil {
				b.Fatal(err)
			}
			doc, _, err := ExperimentRunner(context.Background(), c.req, c.exp, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.cache.Put(c.key, doc); err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("hit: HTTP %d: %s", w.Code, w.Body)
				}
			}
			b.ReportMetric(float64(len(doc)), "doc_bytes")
		})
	}
}
