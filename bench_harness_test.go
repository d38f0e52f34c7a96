// Harness and hot-path micro-benchmarks: the simulator-speed numbers behind
// the BENCH_reproduce.json trajectory. Unlike the table benchmarks (which
// report virtual machine time), these measure the simulator's own real speed
// — simulated events per wall-clock second and allocations per fault.
//
// Run:
//
//	go test -bench=Harness -benchmem
package epcm_test

import (
	"testing"

	"epcm/internal/experiments"
	"epcm/internal/harness"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
)

// BenchmarkHarnessFaultPath drives the single-threaded V++ replacement
// fault path on a metadata-only machine — the tables-2/3 hot shape: every
// access faults, evicts a victim, writes it back and fills the new page.
// Reports real simulated-events/sec plus allocs/op; the dense page store
// and pooled frame buffers show up directly here.
func BenchmarkHarnessFaultPath(b *testing.B) {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20, StoreData: false})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	pool, err := manager.NewFixedPool(k, 64, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := manager.NewGeneric(k, manager.Config{
		Name: "bench", Source: pool, Backing: manager.NewSwapBacking(store),
	})
	if err != nil {
		b.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("data")
	if err != nil {
		b.Fatal(err)
	}
	// A working set twice the pool keeps the manager in steady-state
	// replacement: fault, evict, write back, fill.
	const pages = 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Access(seg, int64(i%pages), kernel.Write); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "sim-events/sec")
	}
}

// BenchmarkHarnessTables runs the fast experiment set through the worker
// pool at GOMAXPROCS, reporting aggregate simulated-events/sec — the number
// that decides how many tables, ablation arms and sweep seeds fit in a run.
func BenchmarkHarnessTables(b *testing.B) {
	tasks := []harness.Task[*experiments.Report]{
		{Name: "table1", Run: experiments.Table1},
		{Name: "tables2-3", Run: experiments.Tables23},
		{Name: "ablations", Run: experiments.Modes{}.Ablations},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.Run(tasks, 0) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			events += r.Value.Events
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "sim-events/sec")
	}
}

// BenchmarkHarnessOverhead isolates the pool's own cost: trivial tasks, so
// the per-task dispatch overhead dominates.
func BenchmarkHarnessOverhead(b *testing.B) {
	tasks := make([]harness.Task[int], 64)
	for i := range tasks {
		i := i
		tasks[i] = harness.Task[int]{Name: "t", Run: func() (int, error) { return i, nil }}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.Run(tasks, 0)
	}
}
