// Command vmmtrace runs one of the §3.2 application workloads on a chosen
// system (V++ with the default segment manager, or the Ultrix baseline) and
// prints the virtual-memory activity it generated — faults, manager calls,
// MigratePages invocations, I/O system calls, zero fills — plus the elapsed
// virtual time.
//
// Usage:
//
//	vmmtrace -workload diff -system vpp
//	vmmtrace -workload uncompress -system ultrix
//	vmmtrace -workload latex -system both
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/trace"
	"epcm/internal/workload"
)

func main() {
	wl := flag.String("workload", "diff", "workload: diff, uncompress, latex, scan, random")
	system := flag.String("system", "both", "system: vpp, ultrix, both")
	memMB := flag.Int("mem", 128, "physical memory in MB")
	replay := flag.String("replay", "", "replay a recorded reference trace file instead of a workload")
	mru := flag.Bool("mru", false, "with -replay: use the MRU replacement policy instead of the clock")
	flag.Parse()

	if *replay != "" {
		replayTrace(*replay, *memMB, *mru)
		return
	}

	var spec workload.Spec
	calibrate := true
	switch *wl {
	case "diff":
		spec = workload.Diff()
	case "uncompress":
		spec = workload.Uncompress()
	case "latex":
		spec = workload.Latex()
	case "scan":
		spec = workload.Synthetic()[0]
		calibrate = false
	case "random":
		spec = workload.Synthetic()[1]
		calibrate = false
	default:
		fmt.Fprintf(os.Stderr, "vmmtrace: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	cal := spec
	if calibrate {
		var err error
		cal, err = workload.Calibrated(spec)
		if err != nil {
			fatal(err)
		}
	}
	memPages := *memMB * 256

	if *system == "vpp" || *system == "both" {
		r, err := workload.NewVppRunner(memPages, kernel.Config{}, nil)
		if err != nil {
			fatal(err)
		}
		elapsed, c, err := workload.Run(r, cal)
		if err != nil {
			fatal(err)
		}
		report("V++", spec.Name, elapsed, c)
	}
	if *system == "ultrix" || *system == "both" {
		r := workload.NewUltrixRunner(memPages)
		elapsed, c, err := workload.Run(r, cal)
		if err != nil {
			fatal(err)
		}
		report("Ultrix", spec.Name, elapsed, c)
	}
}

func report(system, name string, elapsed time.Duration, c workload.Counters) {
	fmt.Printf("%s running %s:\n", system, name)
	fmt.Printf("  elapsed (virtual)     %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  page faults           %d\n", c.Faults)
	if c.ManagerCalls > 0 {
		fmt.Printf("  manager calls          %d\n", c.ManagerCalls)
		fmt.Printf("  MigratePages calls     %d\n", c.MigrateCalls)
	}
	fmt.Printf("  read calls             %d\n", c.ReadCalls)
	fmt.Printf("  write calls            %d\n", c.WriteCalls)
	if c.ZeroFills > 0 {
		fmt.Printf("  security zero fills    %d\n", c.ZeroFills)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmmtrace:", err)
	os.Exit(1)
}

// replayTrace replays a reference trace file against a fresh V++ machine.
func replayTrace(path string, memMB int, mru bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		fatal(err)
	}
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: int64(memMB) << 20, StoreData: false})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	pool, err := manager.NewFixedPool(k, int64(memMB)*256-64, 16)
	if err != nil {
		fatal(err)
	}
	cfg := manager.Config{Name: "replay", Source: pool, Backing: manager.NewSwapBacking(store)}
	if mru {
		cfg.SelectVictim = manager.MRUVictim
	}
	g, err := manager.NewGeneric(k, cfg)
	if err != nil {
		fatal(err)
	}
	res, err := trace.Replay(k, tr, g.CreateManagedSegment)
	if err != nil {
		fatal(err)
	}
	policy := "clock"
	if mru {
		policy = "mru"
	}
	fmt.Printf("replayed %d references over %d segments (policy %s, %d MB):\n",
		res.Refs, len(tr.Segments()), policy, memMB)
	fmt.Printf("  faults   %d\n", res.Faults)
	fmt.Printf("  reclaims %d\n", g.Stats().Reclaims)
	fmt.Printf("  disk ops %d\n", store.Reads()+store.Writes())
	fmt.Printf("  elapsed  %v (virtual)\n", clock.Now().Round(time.Millisecond))
}
