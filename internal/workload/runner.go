// Package workload models the application programs of the paper's §3.2
// evaluation — diff, uncompress and latex — as sequences of the operations
// the virtual memory system actually sees: sequential file reads and
// writes, heap first-touches, and pure computation. A workload runs
// unchanged on either system (the V++ stack with the default segment
// manager, or the ULTRIX baseline), which is how Tables 2 and 3 are
// regenerated.
//
// As in the paper, input files are cached in memory before the measured
// run, "to eliminate differences in I/O performance that is irrelevant to
// the virtual memory system design factors we are measuring".
package workload

import (
	"fmt"
	"time"

	"epcm/internal/defaultmgr"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/uio"
	"epcm/internal/ultrix"
)

// Runner abstracts the system a workload drives.
type Runner interface {
	// SystemName identifies the runner ("V++" or "Ultrix").
	SystemName() string
	// Prepare loads the named input files into the store and pre-caches
	// them in memory, then zeroes clocks and counters so the measured run
	// starts clean.
	Prepare(inputs map[string]int64) error
	// ReadFilePages reads pages [0, pages) of a file sequentially using
	// the system's native I/O unit (4 KB on V++, 8 KB on Ultrix).
	ReadFilePages(name string, pages int64) error
	// WriteFilePages appends pages [0, pages) to a file sequentially using
	// the system's native I/O unit.
	WriteFilePages(name string, pages int64) error
	// TouchHeap references pages [start, start+n) of a named heap region.
	TouchHeap(heap string, start, n int64, write bool) error
	// Compute charges pure CPU time.
	Compute(d time.Duration)
	// Now reports the current virtual time.
	Now() time.Duration
	// Counters reports system activity for Table 3.
	Counters() Counters
}

// Counters is the per-run activity record (Table 3's columns on V++;
// the fault/zero counters describe the Ultrix runs).
type Counters struct {
	ManagerCalls int64 // V++: default-manager invocations
	MigrateCalls int64 // V++: MigratePages invocations by the manager
	Faults       int64 // kernel page faults (both systems)
	ReadCalls    int64
	WriteCalls   int64
	ZeroFills    int64 // Ultrix: security zeroing events
}

// --- V++ runner ---

// VppRunner drives the V++ stack: kernel, default segment manager (as a
// separate server process), UIO block interface.
type VppRunner struct {
	Clock *sim.Clock
	K     *kernel.Kernel
	Store *storage.Store
	D     *defaultmgr.Default
	heaps map[string]*kernel.Segment
	files map[string]*uio.File
}

// NewVppRunner boots a V++ machine with the paper's 128 MB (scaled by
// memPages if nonzero) and a diskless network file server. kcfg configures
// the kernel; policy is the default manager's replacement policy (nil
// means clock).
func NewVppRunner(memPages int, kcfg kernel.Config, policy manager.Policy) (*VppRunner, error) {
	if memPages <= 0 {
		memPages = 32768 // 128 MB of 4 KB pages
	}
	mem := phys.NewMemory(phys.Config{
		FrameSize:  4096,
		TotalBytes: int64(memPages) * 4096,
		StoreData:  false, // metadata-only: these runs track activity, not contents
	})
	clock := &sim.Clock{}
	k := kernel.New(mem, clock, sim.DECstation5000(), kcfg)
	store := storage.NewStore(clock, storage.NetworkServer(), 4096)
	pool, err := manager.NewFixedPool(k, int64(memPages)-64, 16)
	if err != nil {
		return nil, err
	}
	d, err := defaultmgr.New(k, store, defaultmgr.Config{Source: pool, Policy: policy})
	if err != nil {
		return nil, err
	}
	return &VppRunner{
		Clock: clock,
		K:     k,
		Store: store,
		D:     d,
		heaps: make(map[string]*kernel.Segment),
		files: make(map[string]*uio.File),
	}, nil
}

// SystemName implements Runner.
func (r *VppRunner) SystemName() string { return "V++" }

// Prepare implements Runner.
func (r *VppRunner) Prepare(inputs map[string]int64) error {
	for name, pages := range inputs {
		r.Store.Preload(name, pages, nil)
		f, err := r.D.OpenFile(name)
		if err != nil {
			return err
		}
		r.Store.SetCharging(false)
		buf := make([]byte, 4096)
		for p := int64(0); p < pages; p++ {
			if err := f.ReadBlock(p, buf); err != nil {
				return err
			}
		}
		r.Store.SetCharging(true)
		if err := r.D.CloseFile(name); err != nil {
			return err
		}
		r.files[name] = f
	}
	r.Clock.Reset()
	r.K.ResetStats()
	r.D.ResetStats()
	for _, f := range r.files {
		f.ResetCounters()
	}
	return nil
}

func (r *VppRunner) open(name string) (*uio.File, error) {
	f, err := r.D.OpenFile(name)
	if err != nil {
		return nil, err
	}
	r.files[name] = f
	return f, nil
}

// ReadFilePages implements Runner with 4 KB reads.
func (r *VppRunner) ReadFilePages(name string, pages int64) error {
	f, err := r.open(name)
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for p := int64(0); p < pages; p++ {
		if err := f.ReadBlock(p, buf); err != nil {
			return err
		}
	}
	return r.D.CloseFile(name)
}

// WriteFilePages implements Runner with 4 KB writes.
func (r *VppRunner) WriteFilePages(name string, pages int64) error {
	f, err := r.open(name)
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for p := int64(0); p < pages; p++ {
		if err := f.WriteBlock(p, buf); err != nil {
			return err
		}
	}
	return r.D.CloseFile(name)
}

// TouchHeap implements Runner.
func (r *VppRunner) TouchHeap(heap string, start, n int64, write bool) error {
	seg, ok := r.heaps[heap]
	if !ok {
		var err error
		seg, err = r.D.NewAnonymousSegment("heap:" + heap)
		if err != nil {
			return err
		}
		r.heaps[heap] = seg
	}
	acc := kernel.Read
	if write {
		acc = kernel.Write
	}
	for p := start; p < start+n; p++ {
		if err := r.K.Access(seg, p, acc); err != nil {
			return fmt.Errorf("heap %q page %d: %w", heap, p, err)
		}
	}
	return nil
}

// Compute implements Runner.
func (r *VppRunner) Compute(d time.Duration) { r.Clock.Advance(d) }

// Now implements Runner.
func (r *VppRunner) Now() time.Duration { return r.Clock.Now() }

// Counters implements Runner.
func (r *VppRunner) Counters() Counters {
	ds := r.D.Stats()
	gs := r.D.Generic.Stats()
	ks := r.K.Stats()
	return Counters{
		ManagerCalls: ds.Calls,
		MigrateCalls: gs.MigrateCalls,
		Faults:       ks.Faults,
		ReadCalls:    sumFileOps(r.files, func(f *uio.File) int64 { return f.Reads() }),
		WriteCalls:   sumFileOps(r.files, func(f *uio.File) int64 { return f.Writes() }),
	}
}

func sumFileOps(files map[string]*uio.File, get func(*uio.File) int64) int64 {
	var total int64
	for _, f := range files {
		total += get(f)
	}
	return total
}

// --- Ultrix runner ---

// UltrixRunner drives the baseline system.
type UltrixRunner struct {
	Clock *sim.Clock
	Store *storage.Store
	S     *ultrix.System
	heaps map[string]*ultrix.Region
}

// NewUltrixRunner boots an ULTRIX machine with a local disk.
func NewUltrixRunner(memPages int) *UltrixRunner {
	if memPages <= 0 {
		memPages = 32768
	}
	clock := &sim.Clock{}
	store := storage.NewStore(clock, storage.LocalDisk(), 4096)
	return &UltrixRunner{
		Clock: clock,
		Store: store,
		S:     ultrix.New(clock, sim.DECstation5000(), store, memPages),
		heaps: make(map[string]*ultrix.Region),
	}
}

// SystemName implements Runner.
func (r *UltrixRunner) SystemName() string { return "Ultrix" }

// Prepare implements Runner.
func (r *UltrixRunner) Prepare(inputs map[string]int64) error {
	for name, pages := range inputs {
		r.Store.Preload(name, pages, nil)
		f := r.S.OpenFile(name)
		r.Store.SetCharging(false)
		for p := int64(0); p < pages; p += ultrix.IOUnitPages {
			f.ReadUnit(p)
		}
		r.Store.SetCharging(true)
	}
	r.Clock.Reset()
	r.S.ResetStats()
	return nil
}

// ReadFilePages implements Runner with the 8 KB I/O unit.
func (r *UltrixRunner) ReadFilePages(name string, pages int64) error {
	f := r.S.OpenFile(name)
	for p := int64(0); p < pages; p += ultrix.IOUnitPages {
		f.ReadUnit(p)
	}
	return nil
}

// WriteFilePages implements Runner with the 8 KB I/O unit.
func (r *UltrixRunner) WriteFilePages(name string, pages int64) error {
	f := r.S.OpenFile(name)
	for p := int64(0); p < pages; p += ultrix.IOUnitPages {
		f.WriteUnit(p)
	}
	return nil
}

// TouchHeap implements Runner.
func (r *UltrixRunner) TouchHeap(heap string, start, n int64, write bool) error {
	reg, ok := r.heaps[heap]
	if !ok {
		reg = r.S.NewRegion(heap)
		r.heaps[heap] = reg
	}
	for p := start; p < start+n; p++ {
		reg.Touch(p, write)
	}
	return nil
}

// Compute implements Runner.
func (r *UltrixRunner) Compute(d time.Duration) { r.Clock.Advance(d) }

// Now implements Runner.
func (r *UltrixRunner) Now() time.Duration { return r.Clock.Now() }

// Counters implements Runner.
func (r *UltrixRunner) Counters() Counters {
	st := r.S.Stats()
	return Counters{
		Faults:     st.Faults,
		ReadCalls:  st.ReadCalls,
		WriteCalls: st.WriteCalls,
		ZeroFills:  st.ZeroFills,
	}
}
