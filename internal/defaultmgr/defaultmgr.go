// Package defaultmgr implements the default segment manager of §2.3: the
// UIO Cache Directory Server (UCDS) extended for external page-cache
// management. It serves conventional programs that are oblivious to
// external paging: it manages the whole virtual memory system as a file
// page cache (all address spaces are realized as bindings to open files,
// as in SunOS), runs as a separate server process (so every fault pays the
// IPC delivery path — Table 1's 379 µs), samples references with the
// protection-fault clock, batches protection changes to amortize fault
// cost, and allocates pages in 4 KB units except file appends, which get
// 16 KB.
package defaultmgr

import (
	"fmt"
	"sort"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/storage"
	"epcm/internal/uio"
)

// Config tunes the default manager.
type Config struct {
	// UnprotectBatch is how many contiguous pages are re-enabled per
	// protection fault during reference sampling (§2.3: "the default
	// manager changes the protection on a number of contiguous pages,
	// rather than a single page, when a fault occurs"). Default 8.
	UnprotectBatch int
	// AppendUnit is the allocation unit, in pages, for appends to a file
	// (§3.2: "except for appends to a file in which case it allocates
	// pages in 16K units"). Default 4 (16 KB of 4 KB pages).
	AppendUnit int
	// Source supplies frames (normally the SPCM).
	Source manager.FrameSource
	// SameProcess delivers faults as an upcall in the faulting process
	// instead of the realistic separate-server IPC path. Used only by
	// ablation benchmarks; the real default manager is a separate server.
	SameProcess bool
	// Policy is the replacement policy for the embedded Generic; nil means
	// the §2.2 clock.
	Policy manager.Policy
}

// Default is the default segment manager.
type Default struct {
	*manager.Generic
	k       *kernel.Kernel
	cfg     Config
	store   *storage.Store
	backing *manager.FileBacking
	files   map[string]*openFile
	// sampled counts references observed by the protection-fault clock in
	// the current interval, per segment.
	sampled map[kernel.SegID]int64
	// managed segments (Default registers itself, not the embedded
	// Generic, as the kernel-visible manager).
	managed map[kernel.SegID]*kernel.Segment
	stats   Stats
}

// openFile is one entry of the cache directory.
type openFile struct {
	file   *uio.File
	refs   int
	closed bool
}

// Stats counts default-manager activity beyond the Generic counters.
type Stats struct {
	Calls            int64 // total manager invocations (Table 3 column 1)
	AppendAllocs     int64 // multi-page append allocations
	SampleFaults     int64 // protection faults taken for reference sampling
	PagesUnprotected int64 // pages re-enabled by sampling faults
	Opens, Closes    int64
	Adoptions        int64 // segments adopted from revoked managers
}

var _ kernel.Manager = (*Default)(nil)

// New builds the default manager over a file store. The manager is part of
// the "first team": its own code and data are memory-resident by
// construction, so it never page-faults itself.
func New(k *kernel.Kernel, store *storage.Store, cfg Config) (*Default, error) {
	if cfg.UnprotectBatch <= 0 {
		cfg.UnprotectBatch = 8
	}
	if cfg.AppendUnit <= 0 {
		cfg.AppendUnit = 4
	}
	d := &Default{
		k:       k,
		cfg:     cfg,
		store:   store,
		files:   make(map[string]*openFile),
		sampled: make(map[kernel.SegID]int64),
		managed: make(map[kernel.SegID]*kernel.Segment),
	}
	d.backing = manager.NewFileBacking(store)
	delivery := kernel.DeliverSeparateProcess
	if cfg.SameProcess {
		delivery = kernel.DeliverSameProcess
	}
	g, err := manager.NewGeneric(k, manager.Config{
		Name:     "default-segment-manager",
		Delivery: delivery,
		Backing:  d.backing,
		Source:   cfg.Source,
		Fill:     d.fill,
		Policy:   cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	d.Generic = g
	return d, nil
}

// ManagerName implements kernel.Manager.
func (d *Default) ManagerName() string { return "default-segment-manager" }

// Stats returns the default-manager counters.
func (d *Default) Stats() Stats { return d.stats }

// ResetStats zeroes both the default-manager and embedded Generic counters
// (cache state is kept), so measured runs start clean after setup.
func (d *Default) ResetStats() {
	d.stats = Stats{}
	d.Generic.ResetStats()
}

// Manage registers the default manager for a segment.
func (d *Default) Manage(seg *kernel.Segment) {
	d.k.SetSegmentManager(seg, d)
	d.managed[seg.ID()] = seg
}

// AdoptSegment takes over a segment whose manager was revoked. The kernel
// has already repointed the segment's manager at d; this records the
// segment in the cache directory, binds a writeback file for it (evicted
// dirty pages need somewhere to go — pages whose only copy lived in the
// dead manager's private backing are not recoverable, but resident state
// survives intact), and registers the resident pages in the reclaim clock.
func (d *Default) AdoptSegment(seg *kernel.Segment) {
	d.managed[seg.ID()] = seg
	if _, ok := d.backing.FileOf(seg); !ok {
		d.backing.BindFile(seg, fmt.Sprintf("revoked:%d:%s", seg.ID(), seg.Name()))
	}
	d.Generic.AdoptResident(seg)
	d.stats.Adoptions++
}

// OpenFile opens (or re-opens) a named file as a cached-file segment,
// returning its UIO handle. Repeated opens share the cache entry — that is
// the point of a cache directory server.
func (d *Default) OpenFile(name string) (*uio.File, error) {
	d.stats.Calls++ // open requests are forwarded to the manager
	d.stats.Opens++
	if of, ok := d.files[name]; ok {
		of.refs++
		of.closed = false
		return of.file, nil
	}
	seg, err := d.k.CreateSegment("file:"+name, 1)
	if err != nil {
		return nil, err
	}
	d.Manage(seg)
	d.backing.BindFile(seg, name)
	f := uio.Open(d.k, seg, name, d.store.Size(name))
	d.files[name] = &openFile{file: f, refs: 1}
	return f, nil
}

// CloseFile drops one reference. The pages stay cached (they are reclaimed
// by the clock under memory pressure, not by close).
func (d *Default) CloseFile(name string) error {
	of, ok := d.files[name]
	if !ok {
		return fmt.Errorf("defaultmgr: close of unopened file %q", name)
	}
	d.stats.Calls++ // close requests are forwarded to the manager (§3.2)
	d.stats.Closes++
	of.refs--
	if of.refs <= 0 {
		of.refs = 0
		of.closed = true
	}
	return nil
}

// NewAnonymousSegment creates a managed segment for program memory (heap,
// stack) with no backing file; dirty pages spill to swap.
func (d *Default) NewAnonymousSegment(name string) (*kernel.Segment, error) {
	seg, err := d.k.CreateSegment(name, 1)
	if err != nil {
		return nil, err
	}
	d.Manage(seg)
	d.backing.BindFile(seg, "anon:"+name) // swap space for spills
	return seg, nil
}

// HandleFault implements kernel.Manager: append-aware allocation, sampled
// protection faults, and the Generic paths for everything else.
func (d *Default) HandleFault(f kernel.Fault) error {
	d.stats.Calls++
	switch f.Kind {
	case kernel.FaultProtection:
		return d.sampleFault(f)
	case kernel.FaultMissing:
		if unit := d.appendUnit(f); unit > 1 {
			return d.appendAlloc(f, unit)
		}
		return d.Generic.HandleFault(f)
	default:
		return d.Generic.HandleFault(f)
	}
}

// fill is the page-fill routine: fetch from the store only when the store
// actually holds data for the page. Fresh pages (first heap touch, file
// appends) are mapped without I/O and — this being V++ — without zeroing,
// since the frame never changed user (§3.1).
func (d *Default) fill(f kernel.Fault, frame *phys.Frame) error {
	name, ok := d.backing.FileOf(f.Seg)
	if !ok || f.Page >= d.store.Size(name) {
		return manager.ErrSkipFill
	}
	return d.backing.Fill(f.Seg, f.Page, frame)
}

// appendUnit reports the allocation unit for a missing fault: appends to a
// file (a fault at or past the file's cached size) allocate AppendUnit
// pages; everything else allocates one.
func (d *Default) appendUnit(f kernel.Fault) int {
	name, ok := d.backing.FileOf(f.Seg)
	if !ok {
		return 1
	}
	of, ok := d.files[name]
	if !ok {
		return 1
	}
	if f.Access == kernel.Write && f.Page >= of.file.SizeBlocks() {
		return d.cfg.AppendUnit
	}
	return 1
}

// appendAlloc maps `unit` pages starting at the fault with a single
// MigratePages invocation when possible (the frames come from contiguous
// free-segment slots). The extra pages are fresh file pages: no fill is
// needed (and none is charged); they are mapped writable so the subsequent
// appends do not fault.
func (d *Default) appendAlloc(f kernel.Fault, unit int) error {
	d.stats.AppendAllocs++
	if ok, err := d.PageInContiguous(f.Seg, f.Page, int64(unit)); err != nil {
		return err
	} else if ok {
		return nil
	}
	// No contiguous run among the recycled slots: take a fresh one.
	if n, err := d.RequestFreshRun(unit); err != nil {
		return err
	} else if n >= unit {
		if ok, err := d.PageInContiguous(f.Seg, f.Page, int64(unit)); err != nil {
			return err
		} else if ok {
			return nil
		}
	}
	// No contiguous slot run obtainable: fall back to per-page allocation.
	if err := d.Generic.HandleFault(f); err != nil {
		return err
	}
	for i := 1; i < unit; i++ {
		page := f.Page + int64(i)
		if f.Seg.HasPage(page) {
			continue
		}
		pf := kernel.Fault{Seg: f.Seg, Page: page, Access: kernel.Write, Kind: kernel.FaultMissing}
		if err := d.Generic.PageIn(pf); err != nil {
			// Running out of frames mid-batch is fine: the faulted page
			// itself is mapped, which is all correctness requires.
			return nil
		}
	}
	return nil
}

// sampleFault services a reference-sampling protection fault: re-enable
// access on a batch of contiguous pages starting at the faulted one.
func (d *Default) sampleFault(f kernel.Fault) error {
	d.stats.SampleFaults++
	n := int64(0)
	for n < int64(d.cfg.UnprotectBatch) && f.Seg.HasPage(f.Page+n) {
		n++
	}
	if n == 0 {
		n = 1 // shouldn't happen: the faulted page must be present
	}
	if err := d.k.ModifyPageFlags(kernel.AppCred, f.Seg, f.Page, n, kernel.FlagRW, 0); err != nil {
		return err
	}
	d.stats.PagesUnprotected += n
	d.sampled[f.Seg.ID()] += n
	return nil
}

// BeginSampleInterval starts a reference-sampling interval: access to every
// resident page of every managed segment is disabled, so first references
// fault to the manager and are counted. (§2.3.)
func (d *Default) BeginSampleInterval() error {
	d.sampled = make(map[kernel.SegID]int64)
	for _, seg := range d.managed {
		pages := seg.Pages()
		if len(pages) == 0 {
			continue
		}
		// Protect the whole segment — all its runs — with one kernel call.
		ranges := kernel.CoalesceRanges(pages, pages)
		if err := d.k.ModifyPageFlagsBatch(kernel.AppCred, seg, ranges, 0, kernel.FlagRW); err != nil {
			return err
		}
	}
	return nil
}

// SampledUsage reports, per segment, how many pages were referenced since
// BeginSampleInterval — the working-set estimate the clock allocates by.
func (d *Default) SampledUsage() map[kernel.SegID]int64 {
	out := make(map[kernel.SegID]int64, len(d.sampled))
	for k, v := range d.sampled {
		out[k] = v
	}
	return out
}

// WritebackAll flushes every dirty page of managed file segments to the
// store without evicting them (periodic sync).
func (d *Default) WritebackAll() error {
	for _, seg := range d.managed {
		if _, ok := d.backing.FileOf(seg); !ok {
			continue
		}
		var flushed []int64
		for _, p := range seg.Pages() {
			flags, _ := seg.Flags(p)
			if !flags.Has(kernel.FlagDirty) {
				continue
			}
			if err := d.backing.Writeback(seg, p, seg.FrameAt(p)); err != nil {
				return err
			}
			flushed = append(flushed, p)
		}
		if len(flushed) == 0 {
			continue
		}
		// One batched call clears the dirty bits of everything flushed.
		ranges := kernel.CoalesceRanges(flushed, flushed)
		if err := d.k.ModifyPageFlagsBatch(kernel.AppCred, seg, ranges, 0, kernel.FlagDirty); err != nil {
			return err
		}
	}
	return nil
}

// RebalanceByUsage reclaims up to n frames, taking them from the pages
// that went unreferenced in the current sample interval — preferring
// segments with the least sampled usage. This is the §2.3 allocation
// policy: the default manager "allocates page frames to each requester
// based on the number of page frames it has referenced in some interval".
// Pages still protected from BeginSampleInterval are exactly the ones no
// process touched; they are the reclamation victims.
func (d *Default) RebalanceByUsage(n int) (int, error) {
	type cand struct {
		seg   *kernel.Segment
		usage int64
	}
	var order []cand
	for _, seg := range d.managed {
		order = append(order, cand{seg: seg, usage: d.sampled[seg.ID()]})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].usage != order[j].usage {
			return order[i].usage < order[j].usage
		}
		return order[i].seg.ID() < order[j].seg.ID()
	})
	reclaimed := 0
	for _, c := range order {
		if reclaimed >= n {
			break
		}
		for _, p := range c.seg.Pages() {
			if reclaimed >= n {
				break
			}
			flags, _ := c.seg.Flags(p)
			// Still protected == unreferenced this interval; skip pinned.
			if flags.Has(kernel.FlagRead) || flags.Has(kernel.FlagWrite) || flags.Has(kernel.FlagPinned) {
				continue
			}
			if err := d.EvictPage(c.seg, p); err != nil {
				return reclaimed, err
			}
			reclaimed++
		}
	}
	return reclaimed, nil
}

// DeleteFile removes a file from the cache directory and the system: dirty
// pages are NOT written back (the file is being destroyed — its pages are
// dead data, the §2.2 whole-segment discard), the segment is deleted and
// its frames return to the manager's free pool.
func (d *Default) DeleteFile(name string) error {
	of, ok := d.files[name]
	if !ok {
		return fmt.Errorf("defaultmgr: delete of unknown file %q", name)
	}
	d.stats.Calls++
	seg := of.file.Segment()
	delete(d.files, name)
	delete(d.managed, seg.ID())
	// DeleteSegment notifies the manager (SegmentDeleted reclaims frames
	// into the free pool with no writeback).
	return d.k.DeleteSegment(kernel.AppCred, seg)
}

// Daemon performs one periodic maintenance cycle — what the default
// manager's background activity does in a running system: flush dirty
// pages, rebalance allocation by the just-ended sample interval's usage
// (reclaiming up to reclaimTarget frames from idle pages), and start the
// next interval. Returns the number of frames reclaimed.
func (d *Default) Daemon(reclaimTarget int) (int, error) {
	if err := d.WritebackAll(); err != nil {
		return 0, err
	}
	n := 0
	if reclaimTarget > 0 {
		var err error
		n, err = d.RebalanceByUsage(reclaimTarget)
		if err != nil {
			return n, err
		}
	}
	if err := d.BeginSampleInterval(); err != nil {
		return n, err
	}
	return n, nil
}
