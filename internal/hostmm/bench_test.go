package hostmm

import (
	"math/rand"
	"testing"

	"vswapsim/internal/sim"
)

// benchPages is the resident set of the layer benchmarks: 32k
// descriptors, 4 MiB, larger than a typical per-core L2 cache, so each
// benchmark measures the cache lines a page costs as well as the
// instructions.
const benchPages = 32 << 10

// residentCgroup builds one cgroup of benchPages resident anonymous pages,
// first touched in a fixed random order, so that LRU order and slab order
// differ as they do in a run.
func residentCgroup(b *testing.B) (*rig, []*Page) {
	r := newRig(b, benchPages, 0)
	pages := make([]*Page, benchPages)
	for i := range pages {
		pages[i] = r.mgr.NewPage(r.cg, i)
	}
	r.env.Go("setup", func(p *sim.Proc) {
		for _, i := range rand.New(rand.NewSource(1)).Perm(benchPages) {
			r.mgr.FirstTouch(p, pages[i], GuestCtx)
		}
	})
	r.env.Run()
	return r, pages
}

// BenchmarkReclaimScan reports the cost of one page considered by
// scanList (ns/op is per scanned page). Every fourth page is pinned and
// the rest are referenced, so each pass rotates the whole list without
// evicting; the referenced bits are set again, off the clock, after every
// full pass.
func BenchmarkReclaimScan(b *testing.B) {
	r, pages := residentCgroup(b)
	m, cg := r.mgr, r.cg
	reference := func() {
		for i, pg := range pages {
			if i%4 == 0 {
				m.pin(pg)
			} else {
				pg.Referenced = true
			}
		}
	}
	reference()
	var writes []int64
	b.ResetTimer()
	for scanned := 0; scanned < b.N; {
		if scanned > 0 && scanned%benchPages == 0 {
			b.StopTimer()
			reference()
			b.StartTimer()
		}
		if freed, _ := m.scanList(&cg.lists[activeAnon], cg, 1, &scanned, &writes); freed != 0 {
			b.Fatalf("scan freed %d pages", freed)
		}
	}
}

// BenchmarkTouchResident reports the cost of one Manager.Touch of a
// referenced resident page, the guest's common access, over a walk whose
// stride is coprime to the page count.
func BenchmarkTouchResident(b *testing.B) {
	r, pages := residentCgroup(b)
	const stride = 7919
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		r.mgr.Touch(pages[j])
		j += stride
		if j >= benchPages {
			j -= benchPages
		}
	}
}
