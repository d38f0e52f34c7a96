package kernel

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"epcm/internal/phys"
)

// Batched page operations. The paper's default manager "batches protection
// changes to amortize fault cost" (§2.3); this file generalizes that to the
// two hottest kernel entry points. A batched call takes a slice of page
// ranges, acquires the segment (and mapping-cache) locks once, validates
// everything, applies all-or-nothing, and charges the cost model one kernel
// call plus the per-page increments — so a single-range, single-page batch
// charges exactly what the unbatched operation does, and the Table 1/3
// numbers are unchanged.
//
// The unbatched MigratePages / ModifyPageFlags are untouched: they are the
// golden-output paths and the paper's own per-call shape.

// PageRange is one contiguous run of pages in a batched operation. For
// migrations, Pages pages starting at Page in the source land at To in the
// destination; for flag operations only Page and Pages are meaningful.
type PageRange struct {
	Page  int64 // first source page
	To    int64 // first destination page (migrations only)
	Pages int64 // run length
}

// batchScratch is the reusable dedup state for multi-range batches; pooling
// it keeps the batched grant path (hundreds of single-page ranges when the
// granted frames are scattered) off the allocator.
type batchScratch struct {
	srcSeen map[int64]struct{}
	dstSeen map[int64]struct{}
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		srcSeen: make(map[int64]struct{}, 64),
		dstSeen: make(map[int64]struct{}, 64),
	}
}}

func (sc *batchScratch) reset() {
	clear(sc.srcSeen)
	clear(sc.dstSeen)
}

// CoalesceRanges groups parallel source/destination page lists into the
// fewest PageRanges: positions extend the current range only while both the
// source and the destination pages stay consecutive. Callers use it to turn
// per-page migrate loops into one batched call.
func CoalesceRanges(src, dst []int64) []PageRange {
	return CoalesceRangesInto(nil, src, dst)
}

// CoalesceRangesInto is CoalesceRanges appending into a caller-owned buffer
// (passed with length zero) so steady-state callers reuse one allocation.
func CoalesceRangesInto(ranges []PageRange, src, dst []int64) []PageRange {
	if len(src) == 0 || len(src) != len(dst) {
		return nil
	}
	if ranges == nil {
		ranges = make([]PageRange, 0, 4)
	}
	cur := PageRange{Page: src[0], To: dst[0], Pages: 1}
	for i := 1; i < len(src); i++ {
		if src[i] == cur.Page+cur.Pages && dst[i] == cur.To+cur.Pages {
			cur.Pages++
			continue
		}
		ranges = append(ranges, cur)
		cur = PageRange{Page: src[i], To: dst[i], Pages: 1}
	}
	return append(ranges, cur)
}

// MigratePagesBatch moves every range of page frames from src to dst,
// setting and clearing flags on each migrated page, as one kernel call: the
// segment locks are taken once, every range is validated, and the whole
// batch applies all-or-nothing. The cost charged is one KernelCall plus the
// same per-page MigratePage+MappingUpdate the unbatched operation charges,
// so batching amortizes the call overhead without changing per-page costs.
func (k *Kernel) MigratePagesBatch(cred Cred, src, dst *Segment, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	if k.cfg.NoBatch {
		// Ablation mode: the legacy per-page cost structure.
		for _, r := range ranges {
			for i := int64(0); i < r.Pages; i++ {
				if err := k.MigratePages(cred, src, dst, r.Page+i, r.To+i, 1, set, clear); err != nil {
					return err
				}
			}
		}
		return nil
	}
	k.stats.MigrateCalls.Add(uint64(dst.id), 1)
	lockPair(src, dst)
	defer unlockPair(src, dst)
	if src.fpp != dst.fpp {
		return fmt.Errorf("%w: %s -> %s", ErrPageSizeMismatch, src, dst)
	}
	total := int64(0)
	for _, r := range ranges {
		if err := k.validateMigrate(cred, src, dst, r.Page, r.To, r.Pages); err != nil {
			return err
		}
		// A range that is exactly a live source extent needs no per-page
		// source presence probes: the extent invariant guarantees every
		// covered page is present. Destination slots are still checked.
		srcOrd, srcExtent := src.extents[r.Page]
		srcExtent = srcExtent && int64(1)<<uint(srcOrd) == r.Pages
		for i := int64(0); i < r.Pages; i++ {
			if !srcExtent && !src.pages.has(r.Page+i) {
				return pageError(ErrPageNotPresent, src, r.Page+i)
			}
			if dst.pages.has(r.To + i) {
				return pageError(ErrPageBusy, dst, r.To+i)
			}
		}
		total += r.Pages
	}
	if len(ranges) > 1 && !rangesSortedDisjoint(ranges) {
		// The per-page presence checks above cannot see collisions between
		// ranges of the same batch (two ranges naming one source page, or
		// landing on one destination slot). Batches whose ranges ascend
		// without overlap on both sides — the shape every coalesced caller
		// produces — proved themselves collision-free above and skip this
		// pass. Small unsorted batches (the magazine grant's run-per-range
		// shape) use pairwise interval intersection, which for contiguous
		// ranges detects exactly the same page-level duplicates as the
		// per-page dedup maps without touching the allocator; only large
		// unsorted batches fall back to the maps.
		if len(ranges) <= 32 {
			for i := 1; i < len(ranges); i++ {
				for j := 0; j < i; j++ {
					a, b := ranges[i], ranges[j]
					if a.Page < b.Page+b.Pages && b.Page < a.Page+a.Pages {
						return pageError(ErrBadRange, src, max(a.Page, b.Page))
					}
					if a.To < b.To+b.Pages && b.To < a.To+a.Pages {
						return pageError(ErrBadRange, dst, max(a.To, b.To))
					}
				}
			}
		} else {
			sc := batchScratchPool.Get().(*batchScratch)
			sc.reset()
			for _, r := range ranges {
				for i := int64(0); i < r.Pages; i++ {
					if _, dup := sc.srcSeen[r.Page+i]; dup {
						batchScratchPool.Put(sc)
						return pageError(ErrBadRange, src, r.Page+i)
					}
					sc.srcSeen[r.Page+i] = struct{}{}
					if _, dup := sc.dstSeen[r.To+i]; dup {
						batchScratchPool.Put(sc)
						return pageError(ErrBadRange, dst, r.To+i)
					}
					sc.dstSeen[r.To+i] = struct{}{}
				}
			}
			batchScratchPool.Put(sc)
		}
	}
	// With superpages on, a range that happens to be a whole aligned extent
	// backed by a contiguous, naturally-aligned frame run is applied as one
	// extent move: the per-page bookkeeping still runs (the page store stays
	// base-page authoritative), but one span entry replaces 2^order
	// destination cache fills and one SuperpageOp replaces 2^order per-page
	// charges. Off (the default), extentOrderFor is a constant false and the
	// charge below telescopes to exactly the pre-extent total.
	super := k.cfg.Superpages && src.fpp == 1 && dst.fpp == 1
	charge := k.cost.KernelCall
	for _, r := range ranges {
		if o := extentOrderFor(src, r, super); o > 0 {
			k.moveExtent(src, dst, r, uint8(o), set, clear)
			charge += k.cost.SuperpageOp
			continue
		}
		for i := int64(0); i < r.Pages; i++ {
			k.movePageQuiet(src, dst, r.Page+i, r.To+i, set, clear)
		}
		charge += time.Duration(r.Pages) * (k.cost.MigratePage + k.cost.MappingUpdate)
	}
	k.stats.MigratedPages.Add(uint64(dst.id), total)
	k.clock.Advance(charge)
	return nil
}

// extentOrderFor reports the extent order a validated migration range
// qualifies for, or 0: the range must be a whole power-of-two extent of
// 2..2^MaxExtentOrder pages landing on an aligned destination base, and the
// source frames must be physically contiguous ascending from a naturally
// aligned PFN (what PromoteExtent would demand after the fact). Caller
// holds both segment locks and has validated presence.
func extentOrderFor(src *Segment, r PageRange, super bool) int {
	if !super || r.Pages < 2 || r.Pages > 1<<MaxExtentOrder || r.Pages&(r.Pages-1) != 0 {
		return 0
	}
	if r.To < 0 || r.To&(r.Pages-1) != 0 {
		return 0
	}
	if ord, ok := src.extents[r.Page]; ok && int64(1)<<uint(ord) == r.Pages {
		// The range is exactly a live source extent: the extent invariant
		// already guarantees a contiguous, naturally aligned frame run, so
		// the per-page walk below proves nothing new. This is the common
		// extent-fill shape — frames granted as an extent into a staging
		// segment, migrating onward whole.
		return int(ord)
	}
	if src.identity {
		// Boot parks every frame at its own PFN, so a contiguous page range
		// is a contiguous frame run by construction; only the natural
		// alignment of the base remains to check. This is the grant shape —
		// pool frames migrating boot→free as whole runs.
		if r.Page&(r.Pages-1) != 0 {
			return 0
		}
		return bits.TrailingZeros64(uint64(r.Pages))
	}
	var prev phys.PFN
	for i := int64(0); i < r.Pages; i++ {
		e, _ := src.pages.get(r.Page + i)
		pfn := e.frames[0].PFN()
		if i == 0 {
			if int64(pfn)&(r.Pages-1) != 0 {
				return 0
			}
		} else if pfn != prev+1 {
			return 0
		}
		prev = pfn
	}
	return bits.TrailingZeros64(uint64(r.Pages))
}

// rangesSortedDisjoint reports whether the batch's ranges ascend without
// overlap on both the source and the destination side, which rules out
// intra-batch page collisions without any per-page bookkeeping.
func rangesSortedDisjoint(ranges []PageRange) bool {
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Page < ranges[i-1].Page+ranges[i-1].Pages ||
			ranges[i].To < ranges[i-1].To+ranges[i-1].Pages {
			return false
		}
	}
	return true
}

// moveExtent applies one qualifying range as an extent: per-page authority
// moves exactly as movePageQuiet's would, but the destination side installs
// a single span mapping entry and superpage TLB way instead of 2^order
// per-page fills. The destination cannot hold an overlapping extent — every
// destination slot was just verified absent, and a live extent implies all
// its pages present. Both segment locks are held by the caller; the caller
// charges one SuperpageOp.
func (k *Kernel) moveExtent(src, dst *Segment, r PageRange, order uint8, set, clear PageFlags) {
	// When the range is exactly a live source extent — staged frames
	// migrating onward whole — demote it once up front: the per-page
	// covering probe below would fire on the first page and then find
	// nothing for the rest, since extents never overlap.
	probe := true
	if ord, ok := src.extents[r.Page]; ok && ord == order {
		k.dropExtentLocked(src, r.Page, ord)
		probe = false
	}
	var baseEntry *pageEntry
	for i := int64(0); i < r.Pages; i++ {
		srcPage, dstPage := r.Page+i, r.To+i
		if probe {
			k.demoteCoveringLocked(src, srcPage)
		}
		e, _ := src.pages.get(srcPage)
		src.pages.del(srcPage)
		e.flags = e.flags.Apply(set, clear)
		dst.pages.put(dstPage, e)
		for _, f := range e.frames {
			k.frameOwner[f.PFN()] = dst.id
			k.framePage[f.PFN()] = dstPage
		}
		if !k.stagingSkip(src) {
			srcKey := mapKey{src.id, srcPage}
			k.table.remove(srcKey)
			k.tlb.invalidate(srcKey)
		}
		if i == 0 {
			baseEntry = e
		}
	}
	k.recordExtentLocked(dst, r.To, order, baseEntry)
	k.stats.ExtentPromotions.Add(1)
	k.stats.SuperpageOps.Add(1)
}

// movePageQuiet is movePage's bookkeeping without its cost charge or stats
// update; MigratePagesBatch charges the whole batch in one Advance instead.
// Both segments' locks are held by the caller.
func (k *Kernel) movePageQuiet(src, dst *Segment, srcPage, dstPage int64, set, clear PageFlags) {
	k.demoteCoveringLocked(src, srcPage)
	e, _ := src.pages.get(srcPage)
	src.pages.del(srcPage)
	e.flags = e.flags.Apply(set, clear)
	dst.pages.put(dstPage, e)
	for _, f := range e.frames {
		k.frameOwner[f.PFN()] = dst.id
		k.framePage[f.PFN()] = dstPage
	}
	if !k.stagingSkip(src) {
		srcKey := mapKey{src.id, srcPage}
		k.table.remove(srcKey)
		k.tlb.invalidate(srcKey)
	}
	if !k.stagingSkip(dst) {
		dstKey := mapKey{dst.id, dstPage}
		k.table.insert(dstKey, e)
		k.tlb.install(dstKey)
	}
}

// ModifyPageFlagsBatch modifies page flags over every range as one kernel
// call: the segment lock is taken once, every range validated, and the
// batch applied all-or-nothing. The charge is one KernelCall + ModifyFlags
// plus the per-page MappingUpdate of the unbatched operation.
func (k *Kernel) ModifyPageFlagsBatch(cred Cred, s *Segment, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	if k.cfg.NoBatch {
		for _, r := range ranges {
			for i := int64(0); i < r.Pages; i++ {
				if err := k.ModifyPageFlags(cred, s, r.Page+i, 1, set, clear); err != nil {
					return err
				}
			}
		}
		return nil
	}
	k.stats.ModifyCalls.Add(uint64(s.id), 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return ErrNoSuchSegment
	}
	if s.restricted && !cred.Privileged {
		return fmt.Errorf("%w: modify flags on %s by %q", ErrNotPrivileged, s, cred.Name)
	}
	total := int64(0)
	for _, r := range ranges {
		if err := checkRange(s, r.Page, r.Pages); err != nil {
			return err
		}
		for i := int64(0); i < r.Pages; i++ {
			if !s.pages.has(r.Page + i) {
				return pageError(ErrPageNotPresent, s, r.Page+i)
			}
		}
		total += r.Pages
	}
	// A range that exactly matches a promoted extent is applied as one
	// superpage shootdown: the flags still change per base page (the page
	// store stays authoritative, and span entries never carry flags), but a
	// single span invalidate and one SuperpageOp replace 2^order per-page
	// TLB invalidates and MappingUpdates. The extent itself survives — its
	// pages are all still present. With superpages off the loop below
	// charges exactly total*MappingUpdate, as before.
	super := k.cfg.Superpages && s.fpp == 1
	charge := k.cost.KernelCall + k.cost.ModifyFlags
	for _, r := range ranges {
		if ord, ok := s.extents[r.Page]; super && ok && int64(1)<<uint(ord) == r.Pages {
			for i := int64(0); i < r.Pages; i++ {
				e, _ := s.pages.get(r.Page + i)
				e.flags = e.flags.Apply(set, clear)
			}
			k.tlb.invalidateSpan(mapKey{s.id, r.Page}, ord)
			k.stats.SuperpageOps.Add(1)
			charge += k.cost.SuperpageOp
			continue
		}
		for i := int64(0); i < r.Pages; i++ {
			e, _ := s.pages.get(r.Page + i)
			e.flags = e.flags.Apply(set, clear)
			k.tlb.invalidate(mapKey{s.id, r.Page + i})
		}
		charge += time.Duration(r.Pages) * k.cost.MappingUpdate
	}
	k.clock.Advance(charge)
	return nil
}

// GetPageAttributesBatch reads the attributes of an arbitrary set of pages
// of one segment — scattered, unlike GetPageAttributes' contiguous range —
// as a single kernel call: the segment lock is taken once and the charge
// is one KernelCall plus the per-page MappingUpdate/2 of the unbatched
// read. It is the batched reference-bit sampling hook replacement policies
// scan with. Results are appended to dst (pass dst[:0] to reuse storage);
// absent pages report Present=false. With batching disabled it degrades to
// per-page GetPageAttribute calls.
func (k *Kernel) GetPageAttributesBatch(s *Segment, pages []int64, dst []PageAttribute) ([]PageAttribute, error) {
	if len(pages) == 0 {
		return dst, nil
	}
	if k.cfg.NoBatch {
		for _, p := range pages {
			a, err := k.GetPageAttribute(s, p)
			if err != nil {
				return dst, err
			}
			dst = append(dst, a)
		}
		return dst, nil
	}
	k.stats.GetAttrCalls.Add(uint64(s.id), 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return dst, ErrNoSuchSegment
	}
	for _, p := range pages {
		if err := checkRange(s, p, 1); err != nil {
			return dst, err
		}
	}
	for _, p := range pages {
		a := PageAttribute{Page: p, PFN: phys.NoFrame}
		if e, ok := s.pages.get(p); ok {
			f := e.frames[0]
			a.Present = true
			a.Flags = e.flags
			a.PFN = f.PFN()
			a.PhysAddr = f.PhysAddr()
			a.Color = f.Color()
			a.Node = f.Node()
		}
		dst = append(dst, a)
	}
	k.clock.Advance(k.cost.KernelCall + time.Duration(len(pages))*(k.cost.MappingUpdate/2))
	return dst, nil
}

// MigrateCoalescedBatch is MigrateCoalesced over several ranges as one
// kernel call: r.Pages large pages form in dst at r.To from r.Pages×factor
// consecutive base pages of src at r.Page, per range. Locks are taken once,
// every range is validated (including the physical contiguity of each large
// page's frame run), and the batch applies all-or-nothing. The charge is
// one KernelCall plus the same per-base-page MigratePage+MappingUpdate the
// unbatched call charges, so a single-range batch costs exactly one
// MigrateCoalesced. With batching disabled it degrades to per-range calls.
func (k *Kernel) MigrateCoalescedBatch(cred Cred, src, dst *Segment, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	if k.cfg.NoBatch {
		for _, r := range ranges {
			if err := k.MigrateCoalesced(cred, src, dst, r.Page, r.To, r.Pages, set, clear); err != nil {
				return err
			}
		}
		return nil
	}
	k.stats.MigrateCalls.Add(uint64(dst.id), 1)
	lockPair(src, dst)
	defer unlockPair(src, dst)
	if src.fpp != 1 {
		return fmt.Errorf("%w: coalesce source must use base pages", ErrPageSizeMismatch)
	}
	factor := int64(dst.fpp)
	total := int64(0)
	for _, r := range ranges {
		if err := k.validateMigrate(cred, src, dst, r.Page, r.To, r.Pages); err != nil {
			return err
		}
		for i := int64(0); i < r.Pages; i++ {
			if dst.pages.has(r.To + i) {
				return pageError(ErrPageBusy, dst, r.To+i)
			}
			var prev phys.PFN
			for j := int64(0); j < factor; j++ {
				e, ok := src.pages.get(r.Page + i*factor + j)
				if !ok {
					return pageError(ErrPageNotPresent, src, r.Page+i*factor+j)
				}
				pfn := e.frames[0].PFN()
				if j > 0 && pfn != prev+1 {
					return pageError(ErrNotContiguous, src, r.Page+i*factor+j)
				}
				prev = pfn
			}
		}
		total += r.Pages * factor
	}
	if len(ranges) > 1 {
		sc := batchScratchPool.Get().(*batchScratch)
		sc.reset()
		for _, r := range ranges {
			for i := int64(0); i < r.Pages; i++ {
				if _, dup := sc.dstSeen[r.To+i]; dup {
					batchScratchPool.Put(sc)
					return pageError(ErrBadRange, dst, r.To+i)
				}
				sc.dstSeen[r.To+i] = struct{}{}
				for j := int64(0); j < factor; j++ {
					sp := r.Page + i*factor + j
					if _, dup := sc.srcSeen[sp]; dup {
						batchScratchPool.Put(sc)
						return pageError(ErrBadRange, src, sp)
					}
					sc.srcSeen[sp] = struct{}{}
				}
			}
		}
		batchScratchPool.Put(sc)
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			frames := make([]*phys.Frame, 0, factor)
			var flags PageFlags
			for j := int64(0); j < factor; j++ {
				sp := r.Page + i*factor + j
				e, _ := src.pages.get(sp)
				flags |= e.flags
				frames = append(frames, e.frames...)
				k.demoteCoveringLocked(src, sp)
				src.pages.del(sp)
				if !k.stagingSkip(src) {
					key := mapKey{src.id, sp}
					k.table.remove(key)
					k.tlb.invalidate(key)
				}
			}
			ne := &pageEntry{frames: frames, flags: flags.Apply(set, clear)}
			dst.pages.put(r.To+i, ne)
			for _, f := range frames {
				k.frameOwner[f.PFN()] = dst.id
				k.framePage[f.PFN()] = r.To + i
			}
			if !k.stagingSkip(dst) {
				k.table.insert(mapKey{dst.id, r.To + i}, ne)
			}
		}
	}
	k.stats.MigratedPages.Add(uint64(dst.id), total)
	k.clock.Advance(k.cost.KernelCall + time.Duration(total)*(k.cost.MigratePage+k.cost.MappingUpdate))
	return nil
}

// MigrateSplitBatch is MigrateSplit over several ranges as one kernel call:
// r.Pages large pages of src at r.Page become r.Pages×factor base pages of
// dst at r.To, per range. Validation, application, and charging follow
// MigrateCoalescedBatch exactly (one KernelCall plus per-base-page costs);
// with batching disabled it degrades to per-range calls.
func (k *Kernel) MigrateSplitBatch(cred Cred, src, dst *Segment, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	if k.cfg.NoBatch {
		for _, r := range ranges {
			if err := k.MigrateSplit(cred, src, dst, r.Page, r.To, r.Pages, set, clear); err != nil {
				return err
			}
		}
		return nil
	}
	k.stats.MigrateCalls.Add(uint64(dst.id), 1)
	lockPair(src, dst)
	defer unlockPair(src, dst)
	if dst.fpp != 1 {
		return fmt.Errorf("%w: split destination must use base pages", ErrPageSizeMismatch)
	}
	factor := int64(src.fpp)
	total := int64(0)
	for _, r := range ranges {
		if err := k.validateMigrate(cred, src, dst, r.Page, r.To, r.Pages); err != nil {
			return err
		}
		for i := int64(0); i < r.Pages; i++ {
			if !src.pages.has(r.Page + i) {
				return pageError(ErrPageNotPresent, src, r.Page+i)
			}
			for j := int64(0); j < factor; j++ {
				if dst.pages.has(r.To + i*factor + j) {
					return pageError(ErrPageBusy, dst, r.To+i*factor+j)
				}
			}
		}
		total += r.Pages * factor
	}
	if len(ranges) > 1 {
		sc := batchScratchPool.Get().(*batchScratch)
		sc.reset()
		for _, r := range ranges {
			for i := int64(0); i < r.Pages; i++ {
				if _, dup := sc.srcSeen[r.Page+i]; dup {
					batchScratchPool.Put(sc)
					return pageError(ErrBadRange, src, r.Page+i)
				}
				sc.srcSeen[r.Page+i] = struct{}{}
				for j := int64(0); j < factor; j++ {
					dp := r.To + i*factor + j
					if _, dup := sc.dstSeen[dp]; dup {
						batchScratchPool.Put(sc)
						return pageError(ErrBadRange, dst, dp)
					}
					sc.dstSeen[dp] = struct{}{}
				}
			}
		}
		batchScratchPool.Put(sc)
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			e, _ := src.pages.get(r.Page + i)
			src.pages.del(r.Page + i)
			if !k.stagingSkip(src) {
				key := mapKey{src.id, r.Page + i}
				k.table.remove(key)
				k.tlb.invalidate(key)
			}
			for j, f := range e.frames {
				dp := r.To + i*factor + int64(j)
				ne := &pageEntry{frames: []*phys.Frame{f}, flags: e.flags.Apply(set, clear)}
				dst.pages.put(dp, ne)
				k.frameOwner[f.PFN()] = dst.id
				k.framePage[f.PFN()] = dp
				if !k.stagingSkip(dst) {
					k.table.insert(mapKey{dst.id, dp}, ne)
				}
			}
		}
	}
	k.stats.MigratedPages.Add(uint64(dst.id), total)
	k.clock.Advance(k.cost.KernelCall + time.Duration(total)*(k.cost.MigratePage+k.cost.MappingUpdate))
	return nil
}
