package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddGet(t *testing.T) {
	s := NewSet()
	s.Add(DiskOps, 5)
	s.Inc(DiskOps)
	if got := s.Get(DiskOps); got != 6 {
		t.Fatalf("Get = %d, want 6", got)
	}
	if got := s.Get("never.written"); got != 0 {
		t.Fatalf("unwritten counter = %d, want 0", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	s := NewSet()
	s.Add(DiskOps, 10)
	snap := s.Snapshot()
	s.Add(DiskOps, 3)
	s.Add(SwapWriteSectors, 7)
	d := s.Diff(snap)
	if d[DiskOps] != 3 || d[SwapWriteSectors] != 7 {
		t.Fatalf("diff = %v", d)
	}
	if _, ok := d["untouched"]; ok {
		t.Fatal("diff contains untouched counter")
	}
	// snapshot must be an independent copy
	snap[DiskOps] = 999
	if s.Get(DiskOps) != 13 {
		t.Fatal("mutating snapshot affected set")
	}
}

func TestStringSortedNonZero(t *testing.T) {
	s := NewSet()
	s.Add("b.metric", 2)
	s.Add("a.metric", 1)
	s.Add("zero.metric", 0)
	out := s.String()
	if strings.Contains(out, "zero.metric") {
		t.Fatal("zero counters should be omitted")
	}
	if strings.Index(out, "a.metric") > strings.Index(out, "b.metric") {
		t.Fatal("counters not sorted")
	}
}

func TestDiffMatchesAdds(t *testing.T) {
	// Property: for any sequence of adds after a snapshot, Diff equals the
	// sum of the adds per key.
	if err := quick.Check(func(deltas []int8) bool {
		s := NewSet()
		s.Add("k", 100)
		snap := s.Snapshot()
		var sum int64
		for _, d := range deltas {
			s.Add("k", int64(d))
			sum += int64(d)
		}
		got := s.Diff(snap)["k"]
		return got == sum
	}, nil); err != nil {
		t.Fatal(err)
	}
}
