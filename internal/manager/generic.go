package manager

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/storage"
)

// ErrNoMemory reports that a fault could not be served: the free-page
// segment is empty, the frame source granted nothing, and nothing could be
// reclaimed.
var ErrNoMemory = errors.New("manager: no page frames available")

// ErrRetriesExhausted reports that a transient storage error persisted
// through the manager's full retry budget. The last storage error is
// wrapped, so errors.Is still matches storage.ErrTransient/ErrInjected.
var ErrRetriesExhausted = errors.New("manager: storage retries exhausted")

// FrameSource is where a manager obtains page frames beyond its initial
// allocation and returns surplus ones — the System Page Cache Manager in a
// full system (§2.4). It is an interface here so managers can also run from
// a fixed pool in tests and small experiments.
type FrameSource interface {
	// RequestFrames migrates up to n frames satisfying the constraint into
	// g's free-page segment (via g.ReceiveSlots / g.FramesGranted) and
	// reports how many were granted. Zero with nil error means the request
	// was refused or deferred.
	RequestFrames(g *Generic, n int, constraint phys.Range) (int, error)
	// ReturnFrames takes the frames at the given free-segment slots back.
	ReturnFrames(g *Generic, slots []int64) error
}

// resKey identifies a resident page a manager placed.
type resKey struct {
	seg  *kernel.Segment
	page int64
}

// freeSlot is one slot of the free-page segment that currently holds a
// frame. A slot that was filled by reclaiming page `from` remembers it:
// if the application re-faults that page before the frame is reused, the
// manager migrates it straight back — no fill, no I/O (§2.2).
type freeSlot struct {
	slot int64
	// frame caches the slot's physical frame so the fill path does not
	// re-take the free segment's lock per fault; nil means "fetch lazily".
	frame  *phys.Frame
	from   resKey // meaningful only when recall is set
	recall bool   // false if the frame's contents are unassociated
}

// Stats counts a manager's activity.
type Stats struct {
	Faults       int64 // fault events delivered
	Fills        int64 // pages filled from backing store
	FastRefaults int64 // pages recovered from the free segment without I/O
	Writebacks   int64 // dirty pages written to backing store on reclaim
	Discards     int64 // dirty-but-discardable pages dropped without I/O
	Reclaims     int64 // pages migrated back to the free segment
	Grants       int64 // frames obtained from the frame source
	Returns      int64 // frames returned to the frame source
	MigrateCalls int64 // MigratePages invocations issued by this manager
	Retries      int64 // transient storage errors retried
}

// Config specializes a Generic manager. Only Name and Backing are
// required; everything else has workable defaults.
type Config struct {
	// Name labels the manager.
	Name string
	// Delivery selects same-process or separate-process fault handling.
	Delivery kernel.DeliveryMode
	// Backing supplies and persists page data.
	Backing Backing
	// Source supplies frames beyond the initial pool; nil means the
	// manager lives off its initial allocation and local reclamation.
	Source FrameSource
	// Fill, when set, replaces Backing.Fill on page-in — the paper's
	// specializable "page fill routine". Returning ErrSkipFill means the
	// frame's existing contents are intentional (e.g. regeneration).
	Fill func(f kernel.Fault, frame *phys.Frame) error
	// Constraint, when set, restricts which physical frames may serve a
	// fault (page coloring, NUMA placement).
	Constraint func(f kernel.Fault) phys.Range
	// Protection, when set, replaces the default protection-fault handling
	// (which simply enables the faulted access mode).
	Protection func(f kernel.Fault) error
	// SelectVictim, when set, replaces the clock's victim choice — the
	// paper's specializable "page replacement selection routine". It
	// receives the eligible resident pages (unpinned, constraint-admitted)
	// and returns the index to evict, or -1 to decline. Referenced/Dirty
	// flags in the candidates are fresh. It takes precedence over Policy.
	SelectVictim func(cands []Victim) int
	// Policy is the replacement policy driving reclamation (victim
	// selection plus whatever recency/frequency state it keeps). Nil means
	// the §2.2 clock. A Policy instance is stateful and must not be shared
	// between managers.
	Policy Policy
	// OnFault observes every fault after it is handled.
	OnFault func(f kernel.Fault)
	// MapFlags are the page flags set when a page is mapped in
	// (default read+write).
	MapFlags kernel.PageFlags
	// IgnoreDiscardable disables the discardable-page optimization so its
	// benefit can be measured (ablation).
	IgnoreDiscardable bool
	// RequestBatch is how many frames to ask the source for when the free
	// list runs dry (default 8).
	RequestBatch int
	// LanePrefetch, when positive, tops the free list back up to this many
	// frames whenever the manager's delivery lane goes idle (the concurrent
	// scheduler's LaneMaintainer hook), moving frame-source requests off
	// the fault path. Zero disables the hook, keeping virtual-time totals
	// identical to the paper's demand-request behaviour — the reproduce
	// harness relies on that.
	LanePrefetch int
	// ExtentOrder, when positive, activates the superpage plane (super.go)
	// at extents of 2^ExtentOrder base pages: whole-extent page-in over
	// contiguous frame runs, density-tracked promotion, and extent-first
	// reclamation. It only takes effect on a kernel booted with Superpages;
	// zero (the default) keeps every fault-path hook to one integer
	// compare, preserving the golden cost structure exactly.
	ExtentOrder int
	// MaxRetries bounds how many times a transient storage error
	// (storage.ErrTransient) is retried on the fill, writeback and swap
	// paths. 0 disables retrying: every storage error propagates at once.
	MaxRetries int
	// RetryBackoff is the virtual-time delay before the first retry; it
	// doubles per attempt. Defaults to 1 ms when MaxRetries > 0.
	RetryBackoff time.Duration
}

// Generic is the generic segment manager of §2.2. It maintains a free-page
// segment, serves faults by migrating frames from it, reclaims frames with
// a clock algorithm over the pages it has placed, and exchanges frames with
// a FrameSource.
type Generic struct {
	k    *kernel.Kernel
	cfg  Config
	free *kernel.Segment

	freeSlots  []freeSlot // slots holding frames, FIFO
	emptySlots []int64    // slots without frames, available to receive
	nextSlot   int64      // high-water mark for fresh slot numbers

	resident  []resKey       // pages this manager has placed, clock order
	resIdx    *residentIndex // page -> index in resident
	recallIdx map[resKey]int // reclaimed page -> index in freeSlots

	// policies[0] is the default replacement policy; per-segment bindings
	// (SetSegmentPolicy) append to the slice and are recorded in
	// segPolicy. multiPolicy gates the per-page policy lookup so the
	// single-policy fast path stays a slice load. host is the reusable
	// PolicyHost adapter handed to every policy call.
	policies    []Policy
	segPolicy   map[kernel.SegID]Policy
	multiPolicy bool
	host        policyHost
	// rangeScratch is the host's reusable buffer for batched flag ops.
	rangeScratch []kernel.PageRange

	// frameScratch is FramesGranted's reusable batch-lookup buffer.
	frameScratch []*phys.Frame

	// nFree/nResident mirror len(freeSlots)/len(resident) as atomics so
	// the SPCM can read held-page counts (settle, Enforce sizing) while the
	// manager's own goroutine mutates its lists.
	nFree     atomic.Int64
	nResident atomic.Int64

	managed map[kernel.SegID]*kernel.Segment
	stats   Stats
	// freshOnly makes ReceiveSlots hand out brand-new consecutive slot
	// numbers instead of recycling, so a grant forms a contiguous run.
	freshOnly bool

	// Superpage plane (super.go; all nil/zero unless Config.ExtentOrder>0).
	extents     map[resKey]*extentState // extent base -> density state
	promotedExt []resKey                // promoted extents, promotion order
	superStats  SuperStats
	extScratch  []int64
	attrScratch []kernel.PageAttribute
	// extRuns is the extent-run magazine: start slots (free segment) of
	// granted, frame-backed, extent-length runs awaiting an extent fill.
	// The slots are withheld from freeSlots so per-page allocation cannot
	// break a run; flushExtentRuns returns them (see super.go).
	extRuns         []int64
	runRangeScratch [1]kernel.PageRange // extent fill's single-range batch
	runSlotScratch  []int64             // requeueExtentRun's slot buffer
	// extStatePool recycles extentState structs (one churns per extent
	// fill) so the fast path stays off the allocator.
	extStatePool []*extentState
	// freeRunStarts are start slots of aligned, currently-empty runs of
	// 2^ExtentOrder consecutive free-segment slots left behind by past
	// extent fills. Magazine refills reuse them (staged through
	// runSlotQueue) instead of minting fresh slot numbers, so the free
	// segment's page store stays bounded by the working set instead of
	// growing with every refill.
	freeRunStarts   []int64
	runSlotQueue    []int64 // preselected slots for an in-flight refill
	runSlotNext     int     // consumption cursor into runSlotQueue
	runStartScratch []int64 // refill's slot-plan scratch (run starts)

	// Vectored-resolve scratch (vector.go). Only the delivery lane's
	// executor calls HandleFaultVector, so none of it needs locking, and a
	// steady-state batch allocates nothing.
	vecClass    []uint8
	vecSeen     map[resKey]struct{}
	vecMembers  []int
	vecChosen   []int
	vecSlotIdx  []int
	vecPages    []int64
	vecSlots    []int64
	vecNilSlots []int64
	vecRanges   []kernel.PageRange
}

var _ kernel.Manager = (*Generic)(nil)

// ErrSkipFill may be returned by a Fill hook to indicate the page's
// contents are already correct; the manager maps the page without counting
// a fill.
var ErrSkipFill = errors.New("manager: fill intentionally skipped")

// NewGeneric creates a manager with its free-page segment. The pool starts
// empty; seed it with a FrameSource or Kernel migrations plus Adopt.
func NewGeneric(k *kernel.Kernel, cfg Config) (*Generic, error) {
	if cfg.Name == "" {
		cfg.Name = "generic-manager"
	}
	if cfg.Backing == nil {
		cfg.Backing = ZeroFill{}
	}
	if cfg.MapFlags == 0 {
		cfg.MapFlags = kernel.FlagRW
	}
	if cfg.RequestBatch <= 0 {
		cfg.RequestBatch = 8
	}
	if cfg.MaxRetries > 0 && cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	free, err := k.CreateSegment(cfg.Name+".free", 1)
	if err != nil {
		return nil, err
	}
	free.MarkStaging() // holding pen: applications never Access these pages
	if cfg.Policy == nil {
		cfg.Policy = NewClockPolicy()
	}
	g := &Generic{
		k:         k,
		cfg:       cfg,
		free:      free,
		resIdx:    newResidentIndex(),
		recallIdx: make(map[resKey]int),
		managed:   make(map[kernel.SegID]*kernel.Segment),
		policies:  []Policy{cfg.Policy},
	}
	g.host.g = g
	return g, nil
}

// ManagerName implements kernel.Manager.
func (g *Generic) ManagerName() string { return g.cfg.Name }

// Delivery implements kernel.Manager.
func (g *Generic) Delivery() kernel.DeliveryMode { return g.cfg.Delivery }

// Kernel returns the kernel the manager operates on.
func (g *Generic) Kernel() *kernel.Kernel { return g.k }

// FreeSegment returns the manager's free-page segment.
func (g *Generic) FreeSegment() *kernel.Segment { return g.free }

// Backing returns the manager's backing store adapter.
func (g *Generic) Backing() Backing { return g.cfg.Backing }

// FreeFrames reports the number of frames in the free-page segment. It is
// safe to call from other goroutines (the SPCM's settle and enforcement).
func (g *Generic) FreeFrames() int { return int(g.nFree.Load()) }

// ResidentPages reports how many pages the manager currently has placed.
// Like FreeFrames it is safe to call from other goroutines.
func (g *Generic) ResidentPages() int { return int(g.nResident.Load()) }

// Stats returns a snapshot of activity counters.
func (g *Generic) Stats() Stats { return g.stats }

// ResetStats zeroes the activity counters (bookkeeping state is kept).
func (g *Generic) ResetStats() { g.stats = Stats{} }

// retryBacking applies the manager's retry budget to a backing-store
// operation that just failed with err: a transient error
// (storage.ErrTransient) is retried up to MaxRetries times with exponential
// virtual-time backoff; a permanent error propagates immediately and
// unchanged. When the budget runs out the last transient error is wrapped
// in ErrRetriesExhausted — a typed error, never a silently corrupted frame.
// Callers run the first attempt themselves and only reach here on failure,
// so the no-error fast path never constructs the retry closure.
func (g *Generic) retryBacking(err error, op func() error) error {
	if err == nil || g.cfg.MaxRetries == 0 {
		return err
	}
	backoff := g.cfg.RetryBackoff
	for attempt := 0; attempt < g.cfg.MaxRetries; attempt++ {
		if !errors.Is(err, storage.ErrTransient) {
			return err
		}
		g.k.Clock().Advance(backoff)
		backoff *= 2
		g.stats.Retries++
		if err = op(); err == nil {
			return nil
		}
	}
	if errors.Is(err, storage.ErrTransient) {
		return fmt.Errorf("%w (manager %s, %d attempts): %w",
			ErrRetriesExhausted, g.cfg.Name, g.cfg.MaxRetries+1, err)
	}
	return err
}

// AdoptResident registers every page currently present in seg as resident
// under this manager — the bookkeeping half of adopting a revoked manager's
// segment. The frames are already mapped; the adopting manager just needs
// them in its clock so it can reclaim them later.
func (g *Generic) AdoptResident(seg *kernel.Segment) {
	seg.ForEachPage(func(page int64) bool {
		key := resKey{seg: seg, page: page}
		if _, ok := g.resIdx.get(key); !ok {
			g.addResident(key)
		}
		return true
	})
}

// Manage registers the manager as a segment's manager.
func (g *Generic) Manage(seg *kernel.Segment) {
	g.k.SetSegmentManager(seg, g)
	g.managed[seg.ID()] = seg
}

// CreateManagedSegment creates a segment and manages it.
func (g *Generic) CreateManagedSegment(name string) (*kernel.Segment, error) {
	seg, err := g.k.CreateSegment(name, 1)
	if err != nil {
		return nil, err
	}
	g.Manage(seg)
	return seg, nil
}

// ReceiveSlots reserves n empty slots in the free-page segment for a frame
// source to migrate frames into. Call FramesGranted after the migration.
func (g *Generic) ReceiveSlots(n int) []int64 {
	return g.ReceiveSlotsAppend(make([]int64, 0, n), n)
}

// ReceiveSlotsAppend is ReceiveSlots appending into a caller-owned buffer,
// so per-grant callers (the SPCM's request path) can reuse scratch space
// instead of allocating per call.
func (g *Generic) ReceiveSlotsAppend(dst []int64, n int) []int64 {
	for i := 0; i < n; i++ {
		dst = append(dst, g.receiveSlot())
	}
	return dst
}

// receiveSlot is the single-slot form of ReceiveSlots, sparing the slice
// allocation on the eviction hot path.
func (g *Generic) receiveSlot() int64 {
	if g.runSlotNext < len(g.runSlotQueue) {
		s := g.runSlotQueue[g.runSlotNext]
		g.runSlotNext++
		return s
	}
	if !g.freshOnly && len(g.emptySlots) > 0 {
		s := g.emptySlots[len(g.emptySlots)-1]
		g.emptySlots = g.emptySlots[:len(g.emptySlots)-1]
		return s
	}
	s := g.nextSlot
	g.nextSlot++
	return s
}

// FramesGranted records that frames now occupy the given slots (after a
// frame source migrated them in). The frames are resolved in one batched,
// single-lock pass and cached on the free-slot entries, so the fill path
// never re-locks the free segment per fault.
func (g *Generic) FramesGranted(slots []int64) {
	g.frameScratch = g.free.AppendFirstFrames(g.frameScratch[:0], slots)
	for i, s := range slots {
		f := g.frameScratch[i]
		if f == nil {
			panic(fmt.Sprintf("manager %s: FramesGranted slot %d has no frame", g.cfg.Name, s))
		}
		g.freeSlots = append(g.freeSlots, freeSlot{slot: s, frame: f})
		g.nFree.Add(1)
		g.stats.Grants++
	}
}

// Adopt scans the free-page segment for frames migrated in directly (by
// tests or privileged setup code) and adds them to the free list.
func (g *Generic) Adopt() {
	g.flushExtentRuns() // withheld run slots must scan as known free slots
	known := make(map[int64]bool)
	for _, fs := range g.freeSlots {
		known[fs.slot] = true
	}
	for _, p := range g.free.Pages() {
		if !known[p] {
			g.freeSlots = append(g.freeSlots, freeSlot{slot: p})
			g.nFree.Add(1)
			if p >= g.nextSlot {
				g.nextSlot = p + 1
			}
		}
	}
}

// RunsGranted records a magazine grant of n frames (see takeExtentRun):
// the frames stay parked at their granted slots under the extent-run
// magazine's control instead of joining freeSlots — the run source calls
// this in place of FramesGranted, so the per-slot free-list bookkeeping
// (and its undo, since a magazine refill would withhold every granted slot
// again immediately) never runs.
func (g *Generic) RunsGranted(n int) { g.stats.Grants += int64(n) }

// HandleFault implements kernel.Manager.
func (g *Generic) HandleFault(f kernel.Fault) error {
	g.stats.Faults++
	return g.handleFault1(f)
}

// handleFault1 resolves one fault — HandleFault minus the fault count, so
// the vectored path (vector.go) can route individual faults of a batch
// through the exact serial resolution without double-counting.
func (g *Generic) handleFault1(f kernel.Fault) error {
	var err error
	switch f.Kind {
	case kernel.FaultProtection:
		if g.cfg.Protection != nil {
			err = g.cfg.Protection(f)
		} else {
			need := kernel.FlagRead
			if f.Access == kernel.Write {
				need = kernel.FlagWrite
			}
			err = g.k.ModifyPageFlags(kernel.AppCred, f.Seg, f.Page, 1, need, 0)
		}
		if err == nil {
			// A protection fault is the one access signal a manager ever
			// observes for an already-resident page (true cache hits are
			// invisible; the kernel just sets the Referenced bit).
			g.policyTouch(resKey{seg: f.Seg, page: f.Page})
		}
	case kernel.FaultMissing, kernel.FaultCopyOnWrite:
		err = g.PageIn(f)
	default:
		err = fmt.Errorf("manager %s: unknown fault kind %v", g.cfg.Name, f.Kind)
	}
	if err == nil && g.cfg.OnFault != nil {
		g.cfg.OnFault(f)
	}
	return err
}

// PageIn serves a missing-page or copy-on-write fault: allocate a frame
// from the free-page segment (requesting or reclaiming as needed), fill it,
// and migrate it to the faulting page. It is exported so managers built on
// Generic (e.g. the default manager's multi-page append allocation) can
// drive it directly.
func (g *Generic) PageIn(f kernel.Fault) error {
	key := resKey{seg: f.Seg, page: f.Page}
	// Fast re-fault: the page was reclaimed but its frame not yet reused —
	// migrate it straight back (§2.2). The len check spares the 16-byte
	// struct-key map hash on the common path where nothing was reclaimed.
	if len(g.recallIdx) > 0 {
		if i, ok := g.recallIdx[key]; ok && f.Kind == kernel.FaultMissing {
			fs := g.freeSlots[i]
			g.stats.MigrateCalls++
			if err := g.k.MigratePages(kernel.AppCred, g.free, f.Seg, fs.slot, f.Page, 1, g.cfg.MapFlags, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
				return err
			}
			g.removeFreeSlotAt(i)
			g.emptySlots = append(g.emptySlots, fs.slot)
			g.addResident(key)
			g.stats.FastRefaults++
			return nil
		}
	}

	// Superpage fast path: a fault on a fully-absent extent pages the whole
	// extent in over one contiguous frame run (one batched migration, one
	// SuperpageOp charge). Off by default — the gate is an integer compare.
	if f.Kind == kernel.FaultMissing && g.superOn() {
		if handled, err := g.pageInExtent(f); handled || err != nil {
			return err
		}
	}

	var constraint phys.Range
	if g.cfg.Constraint != nil {
		constraint = g.cfg.Constraint(f)
	} else {
		constraint = phys.AnyFrame()
	}
	slotIdx, err := g.allocSlot(constraint)
	if err != nil {
		return err
	}
	fs := g.freeSlots[slotIdx]

	// Fill the frame while it is still in the free segment (the manager
	// has the free segment mapped into its own address space, §2.2).
	if f.Kind == kernel.FaultMissing {
		frame := fs.frame
		if frame == nil {
			frame = g.free.FrameAt(fs.slot)
		}
		var fillErr error
		if g.cfg.Fill != nil {
			fillErr = g.cfg.Fill(f, frame)
		} else {
			fillErr = g.cfg.Backing.Fill(f.Seg, f.Page, frame)
		}
		if fillErr != nil {
			fillErr = g.retryBacking(fillErr, func() error {
				if g.cfg.Fill != nil {
					return g.cfg.Fill(f, frame)
				}
				return g.cfg.Backing.Fill(f.Seg, f.Page, frame)
			})
		}
		switch {
		case fillErr == nil:
			g.stats.Fills++
		case errors.Is(fillErr, ErrSkipFill):
			// Contents intentionally left as they are.
		default:
			return fillErr
		}
	}
	// For a COW fault the kernel copies the source contents after this
	// migrate (§2.1), so no fill happens here.

	g.stats.MigrateCalls++
	if err := g.k.MigratePages(kernel.AppCred, g.free, f.Seg, fs.slot, f.Page, 1, g.cfg.MapFlags, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
		return err
	}
	g.removeFreeSlotAt(slotIdx)
	g.emptySlots = append(g.emptySlots, fs.slot)
	g.addResident(key)
	return nil
}

// allocSlot picks a free slot whose frame satisfies the constraint,
// requesting more frames or reclaiming if necessary.
func (g *Generic) allocSlot(constraint phys.Range) (int, error) {
	unconstrained := !constraint.Constrained()
	for attempt := 0; attempt < 3; attempt++ {
		// Prefer unassociated frames; break associations only if needed.
		// The unconstrained case — every fault without a Constraint hook —
		// skips the per-slot frame resolution entirely: any frame admits.
		best := -1
		for i, fs := range g.freeSlots {
			if !unconstrained {
				frame := fs.frame
				if frame == nil {
					frame = g.free.FrameAt(fs.slot)
				}
				if !constraint.Admits(frame) {
					continue
				}
			}
			if !fs.recall {
				best = i
				break
			}
			if best == -1 {
				best = i
			}
		}
		if best >= 0 {
			if fs := g.freeSlots[best]; fs.recall {
				delete(g.recallIdx, fs.from)
				g.freeSlots[best].recall = false
			}
			return best, nil
		}
		// Try the frame source, then local reclamation.
		if g.cfg.Source != nil {
			granted, err := g.cfg.Source.RequestFrames(g, g.cfg.RequestBatch, constraint)
			if err != nil {
				return -1, err
			}
			if granted > 0 {
				continue
			}
		}
		n, err := g.Reclaim(g.cfg.RequestBatch, constraint)
		if err != nil {
			return -1, err
		}
		if n == 0 {
			break
		}
	}
	return -1, fmt.Errorf("%w (manager %s, constraint %v)", ErrNoMemory, g.cfg.Name, constraint)
}

func (g *Generic) removeFreeSlotAt(i int) {
	fs := g.freeSlots[i]
	if fs.recall {
		delete(g.recallIdx, fs.from)
	}
	g.nFree.Add(-1)
	last := len(g.freeSlots) - 1
	g.freeSlots[i] = g.freeSlots[last]
	g.freeSlots = g.freeSlots[:last]
	if i < len(g.freeSlots) {
		if moved := g.freeSlots[i]; moved.recall {
			g.recallIdx[moved.from] = i
		}
	}
}

func (g *Generic) addResident(key resKey) {
	g.resIdx.put(key, len(g.resident))
	g.resident = append(g.resident, key)
	g.nResident.Add(1)
	p := g.policyFor(key.seg)
	g.host.p = p
	p.Insert(&g.host, PageID{Seg: key.seg, Page: key.page})
	if g.superOn() {
		g.extAdd(key)
	}
}

func (g *Generic) removeResident(key resKey) {
	i, ok := g.resIdx.get(key)
	if !ok {
		return
	}
	g.nResident.Add(-1)
	last := len(g.resident) - 1
	g.resident[i] = g.resident[last]
	g.resident = g.resident[:last]
	g.resIdx.del(key)
	if i < len(g.resident) {
		g.resIdx.put(g.resident[i], i)
	}
	p := g.policyFor(key.seg)
	g.host.p = p
	p.Remove(&g.host, PageID{Seg: key.seg, Page: key.page})
	if g.cfg.ExtentOrder > 0 {
		g.extRemove(key)
	}
}

// policyFor returns the replacement policy bound to a segment (the default
// unless SetSegmentPolicy overrode it).
func (g *Generic) policyFor(seg *kernel.Segment) Policy {
	if !g.multiPolicy {
		return g.policies[0]
	}
	if p, ok := g.segPolicy[seg.ID()]; ok {
		return p
	}
	return g.policies[0]
}

// Policy returns the manager's default replacement policy.
func (g *Generic) Policy() Policy { return g.policies[0] }

// SegmentPolicy returns the policy governing one segment's pages.
func (g *Generic) SegmentPolicy(seg *kernel.Segment) Policy { return g.policyFor(seg) }

// SetSegmentPolicy binds a replacement policy to one segment, overriding
// the manager's default for that segment's pages; nil restores the
// default. Pages of the segment already resident are re-homed into the new
// policy's state. The policy instance must not be shared with another
// manager (it runs on this manager's delivery lane).
func (g *Generic) SetSegmentPolicy(seg *kernel.Segment, p Policy) {
	old := g.policyFor(seg)
	if p == nil || p == g.policies[0] {
		p = g.policies[0]
		delete(g.segPolicy, seg.ID())
		if len(g.segPolicy) == 0 {
			g.multiPolicy = false
		}
	} else {
		known := false
		for _, q := range g.policies {
			if q == p {
				known = true
				break
			}
		}
		if !known {
			g.policies = append(g.policies, p)
		}
		if g.segPolicy == nil {
			g.segPolicy = make(map[kernel.SegID]Policy)
		}
		g.segPolicy[seg.ID()] = p
		g.multiPolicy = true
	}
	if p == old {
		return
	}
	// Re-home this segment's resident pages: out of the old policy's
	// state, into the new one's.
	for _, key := range g.resident {
		if key.seg != seg {
			continue
		}
		id := PageID{Seg: key.seg, Page: key.page}
		g.host.p = old
		old.Remove(&g.host, id)
		g.host.p = p
		p.Insert(&g.host, id)
	}
}

// ManageWithPolicy registers the manager as seg's manager and binds p as
// the segment's replacement policy — per-segment policy selection at
// SetSegmentManager time.
func (g *Generic) ManageWithPolicy(seg *kernel.Segment, p Policy) {
	g.Manage(seg)
	g.SetSegmentPolicy(seg, p)
}

// policyTouch feeds a manager-visible access signal (a protection fault on
// a resident page) to the page's policy.
func (g *Generic) policyTouch(key resKey) {
	if _, ok := g.resIdx.get(key); !ok {
		return
	}
	p := g.policyFor(key.seg)
	g.host.p = p
	p.Touch(&g.host, PageID{Seg: key.seg, Page: key.page})
}

// Victim describes one eviction candidate for a SelectVictim policy.
type Victim struct {
	Seg   *kernel.Segment
	Page  int64
	Flags kernel.PageFlags
}

// Reclaim reclaims until n frames satisfying the constraint have been
// migrated back to the free-page segment. With a SelectVictim policy
// installed, that policy picks every victim; otherwise the manager's
// replacement Policy does (the default clock of §2.2: referenced pages get
// a second chance, pinned pages are skipped) and dirty pages are written
// back unless marked discardable. It returns the number reclaimed.
func (g *Generic) Reclaim(n int, constraint phys.Range) (int, error) {
	if g.cfg.SelectVictim != nil {
		return g.reclaimByPolicy(n, constraint)
	}
	reclaimed := 0
	// Extent-first: evict whole promoted extents before per-page selection
	// (constrained passes skip this — extent frames are wherever the run
	// was granted). No-op unless the superpage plane is active.
	if g.superOn() && !constraint.Constrained() && len(g.promotedExt) > 0 {
		m, err := g.reclaimExtents(n)
		reclaimed += m
		if err != nil || reclaimed >= n {
			return reclaimed, err
		}
	}
	for pi := 0; pi < len(g.policies) && reclaimed < n; pi++ {
		p := g.policies[pi]
		for reclaimed < n {
			g.host.p = p
			g.host.constraint = constraint
			id, flags, ok, err := p.Victim(&g.host)
			if err != nil {
				return reclaimed, err
			}
			if !ok {
				break
			}
			key := resKey{seg: id.Seg, page: id.Page}
			// Conformance teeth: a policy that names a non-resident or
			// pinned victim is broken; fail loudly instead of corrupting
			// the free list.
			if _, res := g.resIdx.get(key); !res {
				return reclaimed, fmt.Errorf("manager %s: policy %s chose non-resident page %d of %v",
					g.cfg.Name, p.PolicyName(), id.Page, id.Seg)
			}
			if flags.Has(kernel.FlagPinned) {
				return reclaimed, fmt.Errorf("manager %s: policy %s chose pinned page %d of %v",
					g.cfg.Name, p.PolicyName(), id.Page, id.Seg)
			}
			if err := g.evict(key, flags); err != nil {
				return reclaimed, err
			}
			reclaimed++
		}
	}
	return reclaimed, nil
}

// reclaimByPolicy drives the specialized victim-selection routine.
func (g *Generic) reclaimByPolicy(n int, constraint phys.Range) (int, error) {
	reclaimed := 0
	for reclaimed < n {
		cands := make([]Victim, 0, len(g.resident))
		for _, key := range g.resident {
			flags, ok := key.seg.Flags(key.page)
			if !ok || flags.Has(kernel.FlagPinned) {
				continue
			}
			if !constraint.Admits(key.seg.FrameAt(key.page)) {
				continue
			}
			cands = append(cands, Victim{Seg: key.seg, Page: key.page, Flags: flags})
		}
		if len(cands) == 0 {
			return reclaimed, nil
		}
		idx := g.cfg.SelectVictim(cands)
		if idx < 0 || idx >= len(cands) {
			return reclaimed, nil
		}
		v := cands[idx]
		if err := g.evict(resKey{seg: v.Seg, page: v.Page}, v.Flags); err != nil {
			return reclaimed, err
		}
		reclaimed++
	}
	return reclaimed, nil
}

// evict writes back (or discards) one page and migrates its frame to the
// free segment, remembering the association for fast re-fault. A discarded
// page keeps no association: its contents are dead, so a re-fault must go
// back through the fill path.
func (g *Generic) evict(key resKey, flags kernel.PageFlags) error {
	// The frame rides along with the migration below; capturing it here
	// keeps the free-slot entry's frame cache warm for the next fill.
	frame := key.seg.FrameAt(key.page)
	discarded := false
	if flags.Has(kernel.FlagDirty) {
		if flags.Has(kernel.FlagDiscardable) && !g.cfg.IgnoreDiscardable {
			g.stats.Discards++
			discarded = true
		} else {
			err := g.cfg.Backing.Writeback(key.seg, key.page, frame)
			if err != nil {
				if err = g.retryBacking(err, func() error {
					return g.cfg.Backing.Writeback(key.seg, key.page, frame)
				}); err != nil {
					return err
				}
			}
			g.stats.Writebacks++
		}
	}
	slot := g.receiveSlot()
	g.stats.MigrateCalls++
	if err := g.k.MigratePages(kernel.AppCred, key.seg, g.free, key.page, slot, 1, 0,
		kernel.FlagRW|kernel.FlagDirty|kernel.FlagReferenced|kernel.FlagDiscardable); err != nil {
		return err
	}
	g.removeResident(key)
	if discarded {
		g.freeSlots = append(g.freeSlots, freeSlot{slot: slot, frame: frame})
	} else {
		g.freeSlots = append(g.freeSlots, freeSlot{slot: slot, frame: frame, from: key, recall: true})
		g.recallIdx[key] = len(g.freeSlots) - 1
	}
	g.nFree.Add(1)
	g.stats.Reclaims++
	return nil
}

// EvictPage forcibly reclaims one specific page (writeback/discard rules as
// in Reclaim, without reference checks). Application-specific managers use
// it for policies like whole-structure discards.
func (g *Generic) EvictPage(seg *kernel.Segment, page int64) error {
	key := resKey{seg: seg, page: page}
	if _, ok := g.resIdx.get(key); !ok {
		return fmt.Errorf("manager %s: page %d of %v not resident", g.cfg.Name, page, seg)
	}
	flags, _ := seg.Flags(page)
	return g.evict(key, flags)
}

// ReturnFreeFrames gives up to n unassociated free frames back to the frame
// source, reporting how many were returned.
func (g *Generic) ReturnFreeFrames(n int) (int, error) {
	if g.cfg.Source == nil {
		return 0, nil
	}
	g.flushExtentRuns() // magazine frames are returnable like any free slot
	var slots []int64
	for i := 0; i < len(g.freeSlots) && len(slots) < n; {
		if !g.freeSlots[i].recall {
			slots = append(slots, g.freeSlots[i].slot)
			g.removeFreeSlotAt(i)
			continue // removeFreeSlotAt swapped a new element into i
		}
		i++
	}
	// If unassociated frames were not enough, break associations.
	for i := 0; i < len(g.freeSlots) && len(slots) < n; {
		slots = append(slots, g.freeSlots[i].slot)
		g.removeFreeSlotAt(i)
	}
	if len(slots) == 0 {
		return 0, nil
	}
	if err := g.cfg.Source.ReturnFrames(g, slots); err != nil {
		return 0, err
	}
	for _, s := range slots {
		g.emptySlots = append(g.emptySlots, s)
	}
	g.stats.Returns += int64(len(slots))
	return len(slots), nil
}

// SegmentDeleted implements kernel.Manager: reclaim all frames of the
// segment into the free list, unassociated (the data is dead). The whole
// segment comes home as one batched migration; on a batch error it falls
// back to page-at-a-time and keeps whatever it can.
func (g *Generic) SegmentDeleted(s *kernel.Segment) {
	pages := s.Pages()
	if len(pages) > 0 {
		const clear = kernel.FlagRW | kernel.FlagDirty | kernel.FlagReferenced
		slots := g.ReceiveSlots(len(pages))
		g.stats.MigrateCalls++
		ranges := kernel.CoalesceRanges(pages, slots)
		if err := g.k.MigratePagesBatch(kernel.AppCred, s, g.free, ranges, 0, clear); err == nil {
			for i, p := range pages {
				g.removeResident(resKey{seg: s, page: p})
				g.freeSlots = append(g.freeSlots, freeSlot{slot: slots[i]})
				g.nFree.Add(1)
			}
		} else {
			for i, p := range pages {
				if s.HasPage(p) {
					g.stats.MigrateCalls++
					if err := g.k.MigratePages(kernel.AppCred, s, g.free, p, slots[i], 1, 0, clear); err != nil {
						// The kernel will sweep anything we leave; the
						// unused slot stays receivable.
						g.emptySlots = append(g.emptySlots, slots[i])
						continue
					}
				}
				// Else: already migrated into slots[i] before the batch
				// (or its unbatched fallback) stopped.
				g.removeResident(resKey{seg: s, page: p})
				g.freeSlots = append(g.freeSlots, freeSlot{slot: slots[i]})
				g.nFree.Add(1)
			}
		}
	}
	g.resIdx.dropSeg(s)
	g.extDropSeg(s)
	delete(g.managed, s.ID())
	if g.multiPolicy {
		delete(g.segPolicy, s.ID())
		if len(g.segPolicy) == 0 {
			g.multiPolicy = false
		}
	}
}

// DropSegmentPages evicts every resident page of one segment without
// deleting the segment — the "delete whole segments of temporary data"
// policy of §2.2, and the index-discard move of the database experiment.
// Dirty pages follow the usual writeback/discard rules.
func (g *Generic) DropSegmentPages(seg *kernel.Segment) error {
	for _, p := range seg.Pages() {
		key := resKey{seg: seg, page: p}
		if _, ok := g.resIdx.get(key); !ok {
			continue
		}
		flags, _ := seg.Flags(p)
		if err := g.evict(key, flags); err != nil {
			return err
		}
	}
	return nil
}

// EnsureFree tries to bring the count of unassociated free frames up to n
// by asking the frame source and then reclaiming. It is best-effort: the
// caller must still handle allocation failure.
func (g *Generic) EnsureFree(n int) error {
	have := func() int {
		c := 0
		for _, fs := range g.freeSlots {
			if !fs.recall {
				c++
			}
		}
		return c
	}
	if have() >= n {
		return nil
	}
	if g.cfg.Source != nil {
		want := n - have()
		if want < g.cfg.RequestBatch {
			want = g.cfg.RequestBatch
		}
		if _, err := g.cfg.Source.RequestFrames(g, want, phys.AnyFrame()); err != nil {
			return err
		}
	}
	if have() >= n {
		return nil
	}
	// Break fast-refault associations before reclaiming more.
	for i := range g.freeSlots {
		if have() >= n {
			return nil
		}
		if fs := g.freeSlots[i]; fs.recall {
			delete(g.recallIdx, fs.from)
			g.freeSlots[i].recall = false
		}
	}
	if have() >= n {
		return nil
	}
	_, err := g.Reclaim(n-have(), phys.AnyFrame())
	return err
}

// RequestFreshRun asks the frame source for n frames delivered into
// brand-new consecutive free-segment slots, guaranteeing a contiguous slot
// run for PageInContiguous regardless of how fragmented the recycled slot
// space is. It reports how many frames were granted.
func (g *Generic) RequestFreshRun(n int) (int, error) {
	if g.cfg.Source == nil {
		return 0, nil
	}
	g.freshOnly = true
	defer func() { g.freshOnly = false }()
	return g.cfg.Source.RequestFrames(g, n, phys.AnyFrame())
}

// PageInContiguous serves a run of n missing pages [startPage, startPage+n)
// of seg with a single MigratePages invocation, when the free-page segment
// holds n frames at consecutive slot numbers — the default manager's 16 KB
// append allocation maps four pages with one kernel operation. When no
// contiguous slot run exists it reports handled=false without side effects,
// and the caller falls back to per-page PageIn.
func (g *Generic) PageInContiguous(seg *kernel.Segment, startPage, n int64) (bool, error) {
	if n <= 1 {
		return false, nil
	}
	// Index unassociated free slots by slot number.
	bySlot := make(map[int64]int, len(g.freeSlots))
	for i, fs := range g.freeSlots {
		if !fs.recall {
			bySlot[fs.slot] = i
		}
	}
	start := int64(-1)
	for slot := range bySlot {
		run := int64(1)
		for run < n {
			if _, ok := bySlot[slot+run]; !ok {
				break
			}
			run++
		}
		if run == n {
			start = slot
			break
		}
	}
	if start < 0 {
		return false, nil
	}
	for i := int64(0); i < n; i++ {
		if seg.HasPage(startPage + i) {
			return false, nil
		}
	}
	g.stats.MigrateCalls++
	if err := g.k.MigratePages(kernel.AppCred, g.free, seg, start, startPage, n,
		g.cfg.MapFlags, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
		return false, err
	}
	// Update bookkeeping: remove the consumed slots, record residency.
	for i := int64(0); i < n; i++ {
		g.removeFreeSlotAt(bySlot[start+i])
		// Re-index: removeFreeSlotAt swaps elements around.
		bySlot = make(map[int64]int, len(g.freeSlots))
		for j, fs := range g.freeSlots {
			if !fs.recall {
				bySlot[fs.slot] = j
			}
		}
		g.emptySlots = append(g.emptySlots, start+i)
		g.addResident(resKey{seg: seg, page: startPage + i})
	}
	return true, nil
}

// PresizeResident sizes the resident bookkeeping for an expected working
// set of n pages: the clock list's capacity and the resident index's dense
// prefix are allocated up front, so a run that faults n pages in never
// grows either on the fault path. Purely a capacity hint — behaviour is
// unchanged.
func (g *Generic) PresizeResident(n int) {
	if n <= 0 {
		return
	}
	if cap(g.resident) < n {
		grown := make([]resKey, len(g.resident), n)
		copy(grown, g.resident)
		g.resident = grown
	}
	g.resIdx.presize(n)
}

var _ kernel.LaneMaintainer = (*Generic)(nil)

// LaneIdle implements kernel.LaneMaintainer: when the manager's delivery
// lane goes quiet and Config.LanePrefetch is set, top the free list back up
// from the frame source so the next fault burst allocates without a grant
// round-trip on its critical path. Best-effort — a refused or failed
// request just leaves the demand-paging path to do what it always did.
func (g *Generic) LaneIdle() {
	want := g.cfg.LanePrefetch
	if want <= 0 || g.cfg.Source == nil {
		return
	}
	have := len(g.freeSlots)
	if have*4 >= want {
		return // above the low-water mark (a quarter of the target)
	}
	g.cfg.Source.RequestFrames(g, want-have, phys.AnyFrame()) //nolint:errcheck // best-effort prefetch
}

// MRUVictim is the classic database scan-replacement policy: evict the
// most recently used page (the highest-numbered resident page here, since
// scans proceed in page order). For cyclic sequential scans larger than
// memory it is dramatically better than LRU/clock — which evicts exactly
// the page the scan will want next — and it is precisely the kind of
// application knowledge the paper argues only the application's own
// manager can apply.
func MRUVictim(cands []Victim) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.Page > cands[best].Page {
			best = i
		}
	}
	return best
}
