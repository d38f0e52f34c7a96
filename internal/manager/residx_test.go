package manager

import (
	"sync"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

func residxTestSegs(t *testing.T, n int) []*kernel.Segment {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	segs := make([]*kernel.Segment, n)
	for i := range segs {
		s, err := k.CreateSegment("residx-test", 1)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = s
	}
	return segs
}

// TestResidentIndexBasics pins the single-threaded contract the manager's
// clock bookkeeping relies on: put/get/del round-trips across the dense
// prefix, the grown prefix, and the sparse spill, plus dropSeg.
func TestResidentIndexBasics(t *testing.T) {
	segs := residxTestSegs(t, 2)
	x := newResidentIndex()
	cases := []int64{0, 1, posDenseDirect - 1, posDenseDirect + 5, posDenseMax + 100}
	for i, page := range cases {
		k := resKey{seg: segs[0], page: page}
		x.put(k, i)
		if got, ok := x.get(k); !ok || got != i {
			t.Fatalf("get(page %d) = %d,%v want %d,true", page, got, ok, i)
		}
	}
	if _, ok := x.get(resKey{seg: segs[1], page: 0}); ok {
		t.Fatal("foreign segment reported present")
	}
	for _, page := range cases {
		k := resKey{seg: segs[0], page: page}
		x.del(k)
		if _, ok := x.get(k); ok {
			t.Fatalf("page %d present after del", page)
		}
	}
	x.put(resKey{seg: segs[1], page: 3}, 7)
	x.dropSeg(segs[1])
	if _, ok := x.get(resKey{seg: segs[1], page: 3}); ok {
		t.Fatal("page present after dropSeg")
	}
}

// TestResidentIndexPresize: a presized index must cover the hinted range
// with its dense prefix immediately (no growth on first put).
func TestResidentIndexPresize(t *testing.T) {
	segs := residxTestSegs(t, 1)
	x := newResidentIndex()
	x.presize(10000)
	k := resKey{seg: segs[0], page: 9999}
	x.put(k, 42)
	if n := x.slots(segs[0]).denseLen(); n < 10000 {
		t.Fatalf("dense prefix not presized: covers %d pages", n)
	}
	if got, ok := x.get(k); !ok || got != 42 {
		t.Fatalf("get = %d,%v want 42,true", got, ok)
	}
}

// TestResidentIndexDenseGrowthAdoptsSparse pins the shadowing bug: pages
// >= posDenseDirect touched before the dense prefix reaches them park in
// sparse; growing the prefix over them must move them into the dense cells,
// not hide them behind empty ones. Out-of-order first touch — a Zipf
// reference string over a large segment — produces exactly this shape.
func TestResidentIndexDenseGrowthAdoptsSparse(t *testing.T) {
	segs := residxTestSegs(t, 1)
	x := newResidentIndex()
	early := []int64{posDenseDirect, 5_000, 9_000, 20_000}
	for i, page := range early {
		x.put(resKey{seg: segs[0], page: page}, 100+i)
	}
	// Walk the prefix up over every early page in admitted steps.
	for i, page := range []int64{10, posDenseDirect - 1, 6_000, 12_000, 23_000} {
		x.put(resKey{seg: segs[0], page: page}, i)
	}
	ps := x.slots(segs[0])
	if ps.denseLen() <= 20_000 {
		t.Fatal("dense prefix did not grow over the early pages")
	}
	for i, page := range early {
		k := resKey{seg: segs[0], page: page}
		if got, ok := x.get(k); !ok || got != 100+i {
			t.Fatalf("get(page %d) = %d,%v after dense growth, want %d,true", page, got, ok, 100+i)
		}
		if _, inSparse := ps.sparse[page]; inSparse {
			t.Fatalf("page %d left in sparse after the prefix covered it", page)
		}
	}
	// A del of an adopted page must clear it for good.
	x.del(resKey{seg: segs[0], page: 9_000})
	if _, ok := x.get(resKey{seg: segs[0], page: 9_000}); ok {
		t.Fatal("adopted page present after del")
	}
}

// TestChaosResidentIndexHammer hammers the atomic resident index from 16
// goroutines under the chaos/-race gate, mirroring the touch/evict mix the
// flat-combining lanes produce: each writer owns a disjoint page range of a
// shared segment (the manager's single-writer-per-page discipline) and
// mixes put (touch/insert), del (evict) and get; readers scan everything;
// one goroutine churns dense growth by walking pages upward; one drops and
// re-creates a segment of its own. A get must return the owner's last put
// — never a stale or foreign position.
func TestChaosResidentIndexHammer(t *testing.T) {
	segs := residxTestSegs(t, 3)
	shared, churn := segs[0], segs[1]
	x := newResidentIndex()
	const (
		writers  = 12
		pagesPer = 128
		rounds   = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * pagesPer)
			last := make(map[int64]int, pagesPer)
			for r := 0; r < rounds; r++ {
				for i := int64(0); i < pagesPer; i++ {
					page := base + i
					k := resKey{seg: shared, page: page}
					switch (r + int(i)) % 3 {
					case 0, 1:
						pos := w*1000000 + r*1000 + int(i)
						x.put(k, pos)
						last[page] = pos
						if got, ok := x.get(k); !ok || got != pos {
							t.Errorf("get(page %d) = %d,%v want %d,true", page, got, ok, pos)
							return
						}
					case 2:
						x.del(k)
						delete(last, page)
						if _, ok := x.get(k); ok {
							t.Errorf("page %d present after del", page)
							return
						}
					}
				}
			}
			for page, pos := range last {
				if got, ok := x.get(resKey{seg: shared, page: page}); !ok || got != pos {
					t.Errorf("final get(page %d) = %d,%v want %d,true", page, got, ok, pos)
					return
				}
			}
		}(w)
	}
	// Dense-growth churn: ascending far-out pages force repeated grows that
	// race against the in-place writers above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			page := int64(writers*pagesPer) + int64(r)*97
			x.put(resKey{seg: churn, page: page}, r)
			x.put(resKey{seg: shared, page: int64(writers*pagesPer) + int64(r)}, r)
		}
	}()
	// Segment churn: create/drop cycles on a private segment.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			x.put(resKey{seg: segs[2], page: int64(r % 8)}, r)
			if r%8 == 7 {
				x.dropSeg(segs[2])
			}
		}
	}()
	// Readers: scan every page; values are owned by writers, so only
	// memory-safety and self-consistency are checked here.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				for page := int64(0); page < writers*pagesPer; page += 11 {
					x.get(resKey{seg: shared, page: page})
				}
			}
		}()
	}
	wg.Wait()
}
