package manager

import (
	"errors"

	"epcm/internal/kernel"
)

// The manager half of the superpage plane (kernel/superpage.go): a density
// tracker that promotes an aligned extent of 2^ExtentOrder base pages once
// every page is resident and referenced, a contiguous page-in fast path
// that faults a whole absent extent in with one batched kernel call (which
// the kernel applies as a single extent: one span mapping entry, one
// SuperpageOp charge), and extent-first reclamation so a promoted extent is
// evicted whole instead of decaying page by page.
//
// Everything here is gated on Config.ExtentOrder > 0 AND the kernel's
// Superpages config; with either off, the hooks in
// generic.go cost one integer compare and the golden fault paths are
// untouched. Demotion bookkeeping mirrors the kernel: any migration that
// removes a covered page demotes the extent inside the kernel
// (demoteCoveringLocked), so the tracker only records that it happened —
// it never issues a second (charged) DemoteExtent call.

// ContiguousSource is an optional FrameSource extension: a source that can
// grant a physically contiguous, naturally aligned run of n frames (the
// SPCM's RequestContiguous). The extent page-in fast path is only available
// when the manager's source implements it.
type ContiguousSource interface {
	FrameSource
	RequestContiguous(g *Generic, n int) (int, error)
}

// ContiguousRunSource is an optional ContiguousSource extension: a source
// that can grant up to count aligned runs of n frames in one round trip
// (the SPCM's RequestContiguousRuns). The extent fill path uses it to
// refill its run magazine, amortizing the grant overhead — one account
// settle and one batched boot-segment migration — over count extents.
type ContiguousRunSource interface {
	ContiguousSource
	RequestContiguousRuns(g *Generic, n, count int) (int, error)
}

// extentMagazineRuns is how many extent runs the fill path requests per
// magazine refill. Sized so the per-grant overhead fades while the hoard
// stays small: at order 4 a full magazine withholds 128 frames per manager.
const extentMagazineRuns = 8

// ExtentPolicy is an optional Policy extension: a policy implementing it is
// consulted for whole-extent victims before per-page selection when the
// superpage plane is active. bases lists the promoted extent bases owned by
// the policy, in promotion order; the policy returns an index into bases,
// or -1 to decline (per-page selection then proceeds).
type ExtentPolicy interface {
	VictimExtent(h PolicyHost, bases []PageID, order int) int
}

// SuperStats counts the manager's superpage-plane activity.
type SuperStats struct {
	Promotions  int64 // extents promoted (density tracker + extent page-ins)
	Demotions   int64 // promoted extents demoted (any covered page left)
	ExtentFills int64 // whole extents paged in via the contiguous fast path
	Denied      int64 // promotion attempts abandoned (fragmented frames)
}

// SuperStats returns a snapshot of the superpage-plane counters.
func (g *Generic) SuperStats() SuperStats { return g.superStats }

// extentState tracks the residency density of one aligned extent.
type extentState struct {
	resident int  // covered base pages currently resident
	promoted bool // extent is live in the kernel
	denied   bool // promotion abandoned until the extent fully drains
}

// superOn reports whether the superpage plane is active for this manager.
func (g *Generic) superOn() bool {
	return g.cfg.ExtentOrder > 0 && g.k.Superpages()
}

// extentSpan returns the extent length in pages and the base covering page.
func (g *Generic) extentSpan(page int64) (n, base int64) {
	n = int64(1) << uint(g.cfg.ExtentOrder)
	return n, page &^ (n - 1)
}

// extAdd is the addResident hook: bump the covering extent's density and
// promote when the extent fills. Promotion is confirmed against the kernel
// (one batched attribute read): every page present, and every page but the
// just-added one referenced — density of use, not just of residency. A
// promotion refused for fragmented frames (ErrNotContiguous) marks the
// extent denied until it fully drains, so the fault path never re-pays the
// attempt per page.
func (g *Generic) extAdd(key resKey) {
	if key.seg.FramesPerPage() != 1 {
		return
	}
	n, base := g.extentSpan(key.page)
	ekey := resKey{seg: key.seg, page: base}
	st := g.extents[ekey]
	if st == nil {
		st = g.newExtentState()
		if g.extents == nil {
			g.extents = make(map[resKey]*extentState)
		}
		g.extents[ekey] = st
	}
	st.resident++
	if st.promoted || st.denied || int64(st.resident) < n {
		return
	}
	if g.extScratch == nil {
		g.extScratch = make([]int64, 0, n)
	}
	pages := g.extScratch[:0]
	for i := int64(0); i < n; i++ {
		pages = append(pages, base+i)
	}
	g.extScratch = pages
	attrs, err := g.k.GetPageAttributesBatch(key.seg, pages, g.attrScratch[:0])
	g.attrScratch = attrs
	if err != nil {
		return
	}
	for _, a := range attrs {
		if !a.Present {
			return
		}
		if a.Page != key.page && !a.Flags.Has(kernel.FlagReferenced) {
			return // not dense in use yet; retry on the next density change
		}
	}
	switch err := g.k.PromoteExtent(kernel.AppCred, key.seg, base, g.cfg.ExtentOrder); {
	case err == nil:
		st.promoted = true
		g.promotedExt = append(g.promotedExt, ekey)
		g.superStats.Promotions++
	case errors.Is(err, kernel.ErrNotContiguous), errors.Is(err, kernel.ErrOverlap):
		st.denied = true
		g.superStats.Denied++
	}
}

// extRemove is the removeResident hook: a covered page left residency. If
// the extent was promoted the kernel has already demoted it (every removal
// path runs through a migration, whose demoteCoveringLocked hook fires
// first); record the demotion and drop the promotion-order entry. When the
// last page drains, the extent's state — including a denied verdict — is
// forgotten, so a future re-fault starts fresh.
func (g *Generic) extRemove(key resKey) {
	if len(g.extents) == 0 {
		return
	}
	_, base := g.extentSpan(key.page)
	ekey := resKey{seg: key.seg, page: base}
	st := g.extents[ekey]
	if st == nil {
		return
	}
	st.resident--
	if st.promoted {
		st.promoted = false
		g.superStats.Demotions++
		for i, k := range g.promotedExt {
			if k == ekey {
				g.promotedExt = append(g.promotedExt[:i], g.promotedExt[i+1:]...)
				break
			}
		}
	}
	if st.resident <= 0 {
		delete(g.extents, ekey)
		g.extStatePool = append(g.extStatePool, st)
	}
}

// extDropSeg forgets every extent of one segment (segment deleted).
func (g *Generic) extDropSeg(seg *kernel.Segment) {
	if len(g.extents) == 0 {
		return
	}
	for k, st := range g.extents {
		if k.seg == seg {
			delete(g.extents, k)
			g.extStatePool = append(g.extStatePool, st)
		}
	}
	kept := g.promotedExt[:0]
	for _, k := range g.promotedExt {
		if k.seg != seg {
			kept = append(kept, k)
		}
	}
	g.promotedExt = kept
}

// pageInExtent serves a missing-page fault by faulting the whole covering
// extent in at once: a contiguous, naturally aligned frame run is granted
// into fresh consecutive free-segment slots, every page is filled while the
// frames sit in the free segment, and one single-range batched migration
// maps the lot — which the kernel recognizes as an extent and applies with
// one span mapping entry and one SuperpageOp charge instead of 2^order
// per-page charges. Reports handled=false (no side effects beyond a
// possibly-cached grant) when the extent is partially resident, the source
// cannot supply a run, or a fill fails — the per-page path then takes over.
func (g *Generic) pageInExtent(f kernel.Fault) (bool, error) {
	src, ok := g.cfg.Source.(ContiguousSource)
	if !ok || f.Seg.FramesPerPage() != 1 {
		return false, nil
	}
	n, base := g.extentSpan(f.Page)
	if base < 0 {
		return false, nil
	}
	if f.Seg.AnyPresent(base, n) {
		return false, nil
	}
	ekey := resKey{seg: f.Seg, page: base}
	if st := g.extents[ekey]; st != nil && st.denied {
		return false, nil
	}
	startSlot, ok, err := g.takeExtentRun(src, n)
	if err != nil {
		return false, err
	}
	if !ok {
		// Pool fragmented (or market refusal): deny until the extent state
		// drains so the remaining faults of this extent go straight to the
		// per-page path instead of re-paying the contiguous request.
		if g.extents == nil {
			g.extents = make(map[resKey]*extentState)
		}
		st := g.newExtentState()
		st.denied = true
		g.extents[ekey] = st
		g.superStats.Denied++
		return false, nil
	}
	// Fill every page while its frame is still in the free segment (the
	// frames are fetched in one locked batch, not per page). A fill failure
	// abandons the fast path — the run's frames go back under per-page
	// free-list control and the per-page path re-drives (and re-reports)
	// the error.
	slots := g.runSlotScratch[:0]
	for i := int64(0); i < n; i++ {
		slots = append(slots, startSlot+i)
	}
	g.runSlotScratch = slots
	g.frameScratch = g.free.AppendFirstFrames(g.frameScratch[:0], slots)
	for i := int64(0); i < n; i++ {
		pf := f
		pf.Page = base + i
		frame := g.frameScratch[i]
		var fillErr error
		if g.cfg.Fill != nil {
			fillErr = g.cfg.Fill(pf, frame)
		} else {
			fillErr = g.cfg.Backing.Fill(f.Seg, pf.Page, frame)
		}
		if fillErr != nil && !errors.Is(fillErr, ErrSkipFill) {
			g.requeueExtentRun(startSlot, n)
			return false, nil
		}
	}
	g.stats.MigrateCalls++
	g.runRangeScratch[0] = kernel.PageRange{Page: startSlot, To: base, Pages: n}
	if err := g.k.MigratePagesBatch(kernel.AppCred, g.free, f.Seg, g.runRangeScratch[:],
		g.cfg.MapFlags, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
		g.requeueExtentRun(startSlot, n)
		return false, err
	}
	// Record residency; the run's slots were already withheld from the free
	// list at grant time (takeExtentRun), so there is nothing to consume
	// here. The extent state is marked promoted (and fully resident) first
	// so the density hook does not mount a second promotion attempt, and
	// the per-page residency loop is addResident unrolled with the policy
	// lookup and hook dispatch hoisted out — one extent is one segment.
	promoted := false
	if _, _, ok := f.Seg.ExtentAt(base); ok {
		promoted = true // the kernel applied the range as one extent
	}
	if g.extents == nil {
		g.extents = make(map[resKey]*extentState)
	}
	st := g.newExtentState()
	st.promoted = promoted
	st.resident = int(n)
	g.extents[ekey] = st
	if promoted {
		g.promotedExt = append(g.promotedExt, ekey)
		g.superStats.Promotions++
	}
	p := g.policyFor(f.Seg)
	g.host.p = p
	for i := int64(0); i < n; i++ {
		key := resKey{seg: f.Seg, page: base + i}
		g.resIdx.put(key, len(g.resident))
		g.resident = append(g.resident, key)
		p.Insert(&g.host, PageID{Seg: key.seg, Page: key.page})
	}
	g.nResident.Add(n)
	// The n now-empty slots stay together as a recycled aligned run for a
	// future magazine refill instead of scattering into emptySlots.
	g.freeRunStarts = append(g.freeRunStarts, startSlot)
	if !promoted {
		// The kernel did not apply the range as one extent (superpages
		// toggled off mid-flight, or a shape the batch declined): replay
		// the density hook for the final page so the tracker's own
		// promotion attempt still fires, as per-page addResident would.
		st.resident--
		g.extAdd(resKey{seg: f.Seg, page: base + n - 1})
	}
	g.stats.Fills += n
	g.superStats.ExtentFills++
	return true, nil
}

// newExtentState takes an extentState from the manager's local pool —
// extents churn once per extent fill, and a pooled zeroed struct keeps the
// fault hot path off the allocator. extRemove and extDropSeg return drained
// states; when the pool runs dry (a workload that only accumulates extents
// never returns any) it is restocked a slab at a time, so the allocator
// sees one call per slab instead of one per extent.
func (g *Generic) newExtentState() *extentState {
	if len(g.extStatePool) == 0 {
		slab := make([]extentState, 64)
		for i := range slab {
			g.extStatePool = append(g.extStatePool, &slab[i])
		}
	}
	k := len(g.extStatePool)
	st := g.extStatePool[k-1]
	g.extStatePool = g.extStatePool[:k-1]
	*st = extentState{}
	return st
}

// takeExtentRun pops the start slot of one granted, frame-backed run of n
// consecutive free-segment slots — the magazine first, a refill from the
// source when it is empty. Granted runs are withheld from freeSlots so
// per-page allocation cannot break one; requeueExtentRun (fill failure) and
// flushExtentRuns (free-list enumeration points) hand them back.
func (g *Generic) takeExtentRun(src ContiguousSource, n int64) (int64, bool, error) {
	if k := len(g.extRuns); k > 0 {
		start := g.extRuns[k-1]
		g.extRuns = g.extRuns[:k-1]
		return start, true, nil
	}
	// Refill. The slot plan prefers recycled aligned runs — emptied by past
	// extent fills — over fresh slot numbers, keeping the free segment's
	// page store bounded instead of growing with every refill. A fresh
	// tail starts at nextSlot rounded up to run alignment; either way each
	// run's grant destination is slot-contiguous and extent-aligned, so
	// the boot→free migration takes the kernel's extent fast path.
	// (Skipped slot numbers are never reused and cost nothing.)
	count := 1
	rs, isRuns := src.(ContiguousRunSource)
	if isRuns {
		count = extentMagazineRuns
	}
	starts := g.runStartScratch[:0]
	for len(starts) < count && len(g.freeRunStarts) > 0 {
		k := len(g.freeRunStarts)
		starts = append(starts, g.freeRunStarts[k-1])
		g.freeRunStarts = g.freeRunStarts[:k-1]
	}
	recycled := len(starts)
	queue := g.runSlotQueue[:0]
	for _, s := range starts {
		for i := int64(0); i < n; i++ {
			queue = append(queue, s+i)
		}
	}
	g.runSlotQueue = queue
	g.runSlotNext = 0
	if recycled < count {
		if rem := g.nextSlot & (n - 1); rem != 0 {
			g.nextSlot += n - rem
		}
		for j := recycled; j < count; j++ {
			starts = append(starts, g.nextSlot+int64(j-recycled)*n)
		}
	}
	g.runStartScratch = starts
	g.freshOnly = true
	runs := 0
	var err error
	if isRuns {
		runs, err = rs.RequestContiguousRuns(g, int(n), count)
	} else {
		var got int
		if got, err = src.RequestContiguous(g, int(n)); int64(got) == n {
			runs = 1
		}
	}
	g.freshOnly = false
	g.runSlotQueue = g.runSlotQueue[:0]
	g.runSlotNext = 0
	// Slot consumption is run-granular (the source takes exactly runs*n
	// slots, front of the plan first), so unconsumed recycled runs are
	// still empty: put them back on the recycle list.
	for j := runs; j < recycled; j++ {
		g.freeRunStarts = append(g.freeRunStarts, starts[j])
	}
	if err != nil || runs == 0 {
		return 0, false, err
	}
	if !isRuns {
		// The single-run fallback grants through FramesGranted, so its
		// slots landed on the freeSlots tail: withhold them. (A run source
		// grants via RunsGranted, which never touches freeSlots.)
		g.freeSlots = g.freeSlots[:int64(len(g.freeSlots))-n]
		g.nFree.Add(-n)
	}
	for j := runs - 1; j >= 1; j-- {
		g.extRuns = append(g.extRuns, starts[j])
	}
	return starts[0], true, nil
}

// requeueExtentRun returns one withheld run's slots — and their still-parked
// frames — to per-page free-list control, after a fill or migrate failure.
func (g *Generic) requeueExtentRun(startSlot, n int64) {
	slots := g.runSlotScratch[:0]
	for i := int64(0); i < n; i++ {
		slots = append(slots, startSlot+i)
	}
	g.runSlotScratch = slots
	g.frameScratch = g.free.AppendFirstFrames(g.frameScratch[:0], slots)
	for i, s := range slots {
		g.freeSlots = append(g.freeSlots, freeSlot{slot: s, frame: g.frameScratch[i]})
		g.nFree.Add(1)
	}
}

// flushExtentRuns drains the run magazine back into freeSlots. It must run
// before anything that enumerates or returns free-slot frames — Adopt,
// ReturnFreeFrames, ReleaseManagement, Quiesce — so withheld runs are never
// invisible to them; the magazine refills on the next extent fault.
func (g *Generic) flushExtentRuns() {
	if len(g.extRuns) == 0 {
		return
	}
	n := int64(1) << uint(g.cfg.ExtentOrder)
	for _, start := range g.extRuns {
		g.requeueExtentRun(start, n)
	}
	g.extRuns = g.extRuns[:0]
}

// reclaimExtents evicts whole promoted extents before per-page selection:
// 2^order frames come home for the price of walking one extent, and the
// wide translation entry dies with the first page instead of decaying. The
// policy is consulted through the optional ExtentPolicy interface; without
// it (or when it declines) the oldest promoted extent is taken. An extent
// with a pinned page is abandoned for the pass (per-page selection skips
// pinned pages anyway). Constrained passes decline — extent frames are
// wherever the run was granted.
func (g *Generic) reclaimExtents(n int) (int, error) {
	reclaimed := 0
	for reclaimed < n && len(g.promotedExt) > 0 {
		idx := 0
		if ep, ok := g.policies[0].(ExtentPolicy); ok {
			bases := make([]PageID, len(g.promotedExt))
			for i, k := range g.promotedExt {
				bases[i] = PageID{Seg: k.seg, Page: k.page}
			}
			g.host.p = g.policies[0]
			idx = ep.VictimExtent(&g.host, bases, g.cfg.ExtentOrder)
			if idx < 0 || idx >= len(g.promotedExt) {
				return reclaimed, nil
			}
		}
		ekey := g.promotedExt[idx]
		span, base := g.extentSpan(ekey.page)
		pinned := false
		for i := int64(0); i < span; i++ {
			if flags, ok := ekey.seg.Flags(base + i); ok && flags.Has(kernel.FlagPinned) {
				pinned = true
				break
			}
		}
		if pinned {
			// Abandon extent-granular eviction for this extent: take it out
			// of the promotion-order list (it stays promoted in the kernel)
			// and let per-page selection work around the pinned page.
			g.promotedExt = append(g.promotedExt[:idx], g.promotedExt[idx+1:]...)
			continue
		}
		for i := int64(0); i < span && reclaimed < n; i++ {
			key := resKey{seg: ekey.seg, page: base + i}
			if _, ok := g.resIdx.get(key); !ok {
				continue
			}
			flags, _ := ekey.seg.Flags(key.page)
			if err := g.evict(key, flags); err != nil {
				return reclaimed, err
			}
			reclaimed++
		}
	}
	return reclaimed, nil
}

// VictimExtent implements ExtentPolicy for the default clock policy: the
// oldest promoted extent goes first — FIFO over extents, matching the
// clock's bias toward pages that have been resident longest.
func (c *clockPolicy) VictimExtent(_ PolicyHost, bases []PageID, _ int) int {
	if len(bases) == 0 {
		return -1
	}
	return 0
}
