package manager

import (
	"sync"
	"sync/atomic"

	"epcm/internal/kernel"
)

// residentIndex maps (segment, page) -> position in Generic.resident.
//
// It replaces a map[resKey]int: addResident runs once per fault on the
// delivery plane's hot path, and hashing the 16-byte struct key — plus the
// incremental rehashing as the map grew with the working set — measured at
// roughly a tenth of a fault-plane run. A manager's resident pages cluster
// in a dense run from page 0 of a handful of segments (the same shape the
// kernel's pageStore exploits), so the index is a small per-segment map
// over dense position slices, with a sparse map spill for far-out pages.
//
// The dense cells are atomic: a touch (get) or in-place put on a page the
// dense prefix already covers is lock-free, so flat-combining lanes never
// rendezvous on a mutex for the common refault. Only growth of the dense
// prefix and the sparse spill take the per-segment mutex. The prefix is a
// spine of fixed-size chunks, and growth copies chunk pointers, never cell
// values: a cell keeps its address for the life of the segment, so a
// lock-free store can never land in an array a concurrent grow has already
// copied and is about to retire. Correctness of the values still relies on
// the manager's single-writer discipline (one lane executor mutates a
// manager at a time); the atomics make concurrent readers — the MRU probe,
// invariant checks — safe, and keep the structure race-clean if that
// discipline is ever relaxed per key.
type residentIndex struct {
	bySeg sync.Map // *kernel.Segment -> *posSlots
	// hint presizes a new segment's dense prefix (PresizeResident), so a
	// working set touched in order never grows the prefix.
	hint int
}

// posChunk is the number of dense cells per chunk (4 KB).
const posChunk = 1024

type posCells [posChunk]atomic.Int32

// posSlots holds one segment's page -> position mapping. Positions are
// stored +1 so the zero value of a dense cell means "absent".
type posSlots struct {
	dense  atomic.Pointer[[]*posCells] // pages [0, len(dense)*posChunk)
	mu     sync.Mutex
	sparse map[int64]int32 // pages beyond the dense prefix, never below it
}

const (
	// posDenseDirect is the page number below which the dense prefix always
	// grows to cover a put (at most 16 KB per segment).
	posDenseDirect = 4096
	// posDenseMax caps dense growth, mirroring pageStore's bound.
	posDenseMax = 1 << 21
)

func newResidentIndex() *residentIndex {
	return &residentIndex{}
}

// presize records the dense sizing hint for segments indexed from now on.
func (x *residentIndex) presize(pages int) {
	if pages > posDenseMax {
		pages = posDenseMax
	}
	if pages > x.hint {
		x.hint = pages
	}
}

func (x *residentIndex) slots(seg *kernel.Segment) *posSlots {
	if v, ok := x.bySeg.Load(seg); ok {
		return v.(*posSlots)
	}
	ps := &posSlots{}
	if x.hint > 0 {
		ps.grow(int64(x.hint))
	}
	if v, raced := x.bySeg.LoadOrStore(seg, ps); raced {
		return v.(*posSlots)
	}
	return ps
}

func (x *residentIndex) get(k resKey) (int, bool) {
	v, ok := x.bySeg.Load(k.seg)
	if !ok {
		return 0, false
	}
	ps := v.(*posSlots)
	if c := ps.denseCell(k.page); c != nil {
		p := c.Load()
		return int(p) - 1, p != 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	// Re-check under the mutex: a grow that raced the lock-free probe may
	// have moved the page from sparse into the new dense prefix.
	if c := ps.denseCell(k.page); c != nil {
		p := c.Load()
		return int(p) - 1, p != 0
	}
	p, ok := ps.sparse[k.page]
	return int(p) - 1, ok
}

func (x *residentIndex) put(k resKey, pos int) {
	x.set(k, int32(pos)+1)
}

func (x *residentIndex) del(k resKey) {
	v, ok := x.bySeg.Load(k.seg)
	if !ok {
		return
	}
	ps := v.(*posSlots)
	if c := ps.denseCell(k.page); c != nil {
		c.Store(0)
		return
	}
	ps.mu.Lock()
	if c := ps.denseCell(k.page); c != nil {
		c.Store(0) // a racing grow adopted the page
	} else {
		delete(ps.sparse, k.page)
	}
	ps.mu.Unlock()
}

func (x *residentIndex) set(k resKey, v int32) {
	ps := x.slots(k.seg)
	if c := ps.denseCell(k.page); c != nil {
		c.Store(v)
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if c := ps.denseCell(k.page); c != nil {
		c.Store(v) // a racing grow covered the page
		return
	}
	cur := ps.denseLen()
	if k.page >= 0 && k.page < posDenseMax &&
		(k.page < posDenseDirect || k.page < 2*cur) {
		// Doubling amortizes the spine copies over the pages it covers.
		ps.grow(max(k.page+1, 2*cur))
		ps.denseCell(k.page).Store(v)
		return
	}
	if v == 0 {
		delete(ps.sparse, k.page)
		return
	}
	if ps.sparse == nil {
		ps.sparse = make(map[int64]int32)
	}
	ps.sparse[k.page] = v
}

// grow extends the dense prefix to cover at least pages pages (capped at
// posDenseMax) and publishes it. The caller holds ps.mu, or owns ps before
// publishing it. Existing chunks are shared, not copied, and every sparse
// page the grown prefix now covers moves into its cell, so a page parked in
// sparse before the growth is never shadowed behind an empty dense cell.
func (ps *posSlots) grow(pages int64) {
	pages = min(pages, posDenseMax)
	var spine []*posCells
	if old := ps.dense.Load(); old != nil {
		spine = *old
	}
	n := int((pages + posChunk - 1) / posChunk)
	if n <= len(spine) {
		return
	}
	grown := make([]*posCells, n)
	copy(grown, spine)
	fresh := make([]posCells, n-len(spine))
	for i := range fresh {
		grown[len(spine)+i] = &fresh[i]
	}
	covered := int64(n) * posChunk
	for page, pv := range ps.sparse {
		if page >= 0 && page < covered {
			grown[page/posChunk][page%posChunk].Store(pv)
			delete(ps.sparse, page)
		}
	}
	ps.dense.Store(&grown)
}

// denseLen reports how many pages the dense prefix covers.
func (ps *posSlots) denseLen() int64 {
	if spine := ps.dense.Load(); spine != nil {
		return int64(len(*spine)) * posChunk
	}
	return 0
}

// denseCell returns page's dense cell if the prefix covers it, else nil.
func (ps *posSlots) denseCell(page int64) *atomic.Int32 {
	spine := ps.dense.Load()
	if spine == nil || uint64(page) >= uint64(len(*spine))*posChunk {
		return nil
	}
	return &(*spine)[page/posChunk][page%posChunk]
}

// dropSeg releases a deleted segment's slab so the index does not retain
// dense slices keyed by dead segments across create/delete churn.
func (x *residentIndex) dropSeg(seg *kernel.Segment) {
	x.bySeg.Delete(seg)
}
