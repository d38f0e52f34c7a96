// Command reproduce regenerates every table of the paper's evaluation
// (Harty & Cheriton, ASPLOS 1992) and prints measured-vs-paper values.
//
// The selected tables run concurrently on the experiment harness — each
// builds its own simulator instances, so output is byte-identical at any
// parallelism level and is printed in table order regardless of which
// experiment finishes first.
//
// Usage:
//
//	reproduce                        # all tables, GOMAXPROCS-wide
//	reproduce -table 1               # just Table 1
//	reproduce -table 4 -txns 8000
//	reproduce -par 1                 # sequential
//	reproduce -json BENCH_reproduce.json
//	reproduce -sched concurrent      # concurrent fault-delivery scheduler
//	reproduce -plane                 # also run the delivery-plane scaling table
//	reproduce -plane -managers 1,2,4 # plane table over chosen manager counts
//	reproduce -batch=false           # disable batched kernel operations
//	reproduce -vector=false          # disable vectored fault delivery
//	reproduce -profile out/          # write mutex/block pprof profiles to a directory
//	reproduce -scale                 # wall-clock scale sweep -> BENCH_scale.json
//	reproduce -scalediff             # diff the last two scale sweeps and exit
//	reproduce -super                 # boot the tables' machines with superpages on
//	reproduce -supersweep            # superpage sweep -> BENCH_super.json
//	reproduce -superdiff             # diff the last two superpage sweeps and exit
//	reproduce -policy                # replacement-policy shootout -> BENCH_policy.json
//	reproduce -policy -policies lru,s3fifo -policyworkloads mixed
//	reproduce -policydiff            # diff the last two shootout sweeps and exit
//	reproduce -reclaim lru           # replacement policy for the tables' managers
//	reproduce -timeengine sharded    # sharded virtual-time engine (golden stays identical)
//	reproduce -time                  # virtual-time engine scaling sweep -> BENCH_time.json
//	reproduce -time -timeshards 1,4  # sweep over chosen shard counts
//	reproduce -timediff              # diff the last two time sweeps and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"epcm/internal/experiments"
	"epcm/internal/harness"
	"epcm/internal/kernel"
	"epcm/internal/manager"
)

// trajectory is the BENCH_reproduce.json record: one wall-clock and
// measured-vs-paper snapshot per run, accumulated across the repository's
// history to track the benchmark trajectory.
type trajectory struct {
	Benchmark       string       `json:"benchmark"`
	GeneratedAt     string       `json:"generated_at"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	Parallelism     int          `json:"parallelism"`
	TotalWallMS     float64      `json:"total_wall_ms"`
	SumTableWallMS  float64      `json:"sum_table_wall_ms"`
	ParallelSpeedup float64      `json:"parallel_speedup"`
	Tables          []tableEntry `json:"tables"`
}

type tableEntry struct {
	*experiments.Report
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

func main() {
	table := flag.Int("table", 0, "table to reproduce (1-4); 0 means all")
	txns := flag.Int("txns", 0, "override Table 4 transaction count")
	seed := flag.Uint64("seed", 0, "override Table 4 random seed")
	ablations := flag.Bool("ablations", false, "also print the design-choice ablation summary")
	par := flag.Int("par", 0, "worker-pool size; 0 means GOMAXPROCS, 1 means sequential")
	jsonPath := flag.String("json", "", "write a benchmark-trajectory record to this path")
	sched := flag.String("sched", "serial", "fault-delivery scheduler: serial (deterministic) or concurrent")
	planeTbl := flag.Bool("plane", false, "also run the delivery-plane throughput scaling table (wall-clock columns; not part of the golden output)")
	batch := flag.Bool("batch", true, "use batched kernel operations (MigratePagesBatch/ModifyPageFlagsBatch)")
	vector := flag.Bool("vector", true, "use vectored fault delivery under the concurrent scheduler (one upcall per drained fault run)")
	profileDir := flag.String("profile", "", "write mutex and block pprof profiles to this directory at exit (plateau-hunt data)")
	managersFlag := flag.String("managers", "1,4", "comma-separated manager counts for the -plane table")
	scale := flag.Bool("scale", false, "run the wall-clock scale sweep (managers x scheduler x batch) and append it to BENCH_scale.json")
	scaleManagers := flag.String("scalemanagers", "", "comma-separated manager counts for the -scale sweep (default: 1,2,4,8,16,32)")
	scaleFaults := flag.Int("scalefaults", 0, "per-manager base fault count for the -scale sweep (default 32768)")
	scaleFile := flag.String("scalefile", "BENCH_scale.json", "append-only trajectory file for the -scale sweep")
	scaleDiff := flag.Bool("scalediff", false, "print a per-cell diff of the last two sweeps in BENCH_scale.json and exit")
	super := flag.Bool("super", false, "boot the tables' machines with the superpage extent plane on (off by default)")
	superSweep := flag.Bool("supersweep", false, "run the superpage sweep (managers x {base, super}) and append it to -superfile")
	superManagers := flag.String("supermanagers", "8,16", "comma-separated manager counts for the -supersweep")
	superFaults := flag.Int("superfaults", 0, "per-manager base fault count for the -supersweep (default 32768)")
	superFile := flag.String("superfile", "BENCH_super.json", "append-only trajectory file for the -supersweep")
	superDiff := flag.Bool("superdiff", false, "print a per-cell diff of the last two sweeps in the -superfile and exit")
	policyTbl := flag.Bool("policy", false, "run the replacement-policy shootout (policies x workloads x pressures) and append it to -policyout")
	policiesFlag := flag.String("policies", "", "comma-separated policy names for the -policy shootout (default: all registered)")
	policyWorkloads := flag.String("policyworkloads", "", "comma-separated workloads for the -policy shootout: zipf,scan,loop,mixed (default: all)")
	policyRefs := flag.Int("policyrefs", 0, "reference-string length per shootout cell (default 20000)")
	policyOut := flag.String("policyout", "BENCH_policy.json", "append-only trajectory file for the -policy shootout")
	policyDiff := flag.Bool("policydiff", false, "print a per-cell diff of the last two sweeps in the -policyout file and exit")
	reclaim := flag.String("reclaim", "", "replacement policy of the tables' managers that name none: clock, lru, lfu, s3fifo or mglru")
	timeEngine := flag.String("timeengine", "serial", "virtual-time engine: serial (golden reference) or sharded (windowed conservative)")
	timeTbl := flag.Bool("time", false, "run the virtual-time engine scaling sweep and append it to -timefile")
	timeShards := flag.String("timeshards", "1,2,4,8", "comma-separated shard counts for the -time sweep")
	timeEvents := flag.Int("timeevents", 0, "total sleep steps per -time cell (default: scaled to the widest cell)")
	timeFile := flag.String("timefile", "BENCH_time.json", "append-only trajectory file for the -time sweep")
	timeDiff := flag.Bool("timediff", false, "print a per-cell diff of the last two sweeps in the -timefile and exit")
	flag.Parse()
	if *timeDiff {
		out, err := experiments.DiffTimeSweeps(*timeFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		os.Stdout.WriteString(out)
		return
	}
	if *scaleDiff {
		out, err := experiments.DiffScaleSweeps("BENCH_scale.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		os.Stdout.WriteString(out)
		return
	}
	if *superDiff {
		out, err := experiments.DiffSuperSweeps(*superFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		os.Stdout.WriteString(out)
		return
	}
	if *policyDiff {
		out, err := experiments.DiffPolicySweeps(*policyOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		os.Stdout.WriteString(out)
		return
	}
	modes, err := parseModes(*sched, *timeEngine, *reclaim, *batch, *vector, *super)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	managers, err := parseManagers(*managersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	if *profileDir != "" {
		// Contention profiling for plateau hunts: sample every mutex hold
		// and every blocking event for the whole run, and write the profiles
		// out once the selected experiments finish. The sampling itself adds
		// a little overhead, so profiled runs are for diagnosis, not for
		// recorded benchmark numbers.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
		defer writeProfiles(*profileDir)
	}

	var tasks []harness.Task[*experiments.Report]
	add := func(name string, run func() (*experiments.Report, error)) {
		tasks = append(tasks, harness.Task[*experiments.Report]{Name: name, Run: run})
	}
	if *table < 0 || *table > 4 {
		fmt.Fprintf(os.Stderr, "reproduce: no such table %d (want 1-4, or 0 for all)\n", *table)
		os.Exit(2)
	}
	if *table == 0 || *table == 1 {
		add("table1", modes.Table1)
	}
	if *table == 0 || *table == 2 || *table == 3 {
		add("tables2-3", modes.Tables23)
	}
	if *table == 0 || *table == 4 {
		add("table4", func() (*experiments.Report, error) { return modes.Table4(*txns, *seed) })
	}
	if *ablations {
		add("ablations", modes.Ablations)
	}
	var planeRuns []experiments.PlaneResult
	if *planeTbl {
		add("plane", func() (*experiments.Report, error) {
			rep, runs, err := experiments.PlaneTable(0, managers)
			planeRuns = runs
			return rep, err
		})
	}

	start := time.Now()
	results := harness.Run(tasks, *par)
	totalWall := time.Since(start)

	ok := true
	traj := trajectory{
		Benchmark:   "reproduce",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: harness.Parallelism(*par),
		TotalWallMS: float64(totalWall.Microseconds()) / 1000,
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", r.Name, r.Err)
			ok = false
			continue
		}
		rep := r.Value
		rep.Wall = r.Wall
		os.Stdout.Write(rep.Output)
		ok = ok && rep.OK
		entry := tableEntry{Report: rep, WallMS: float64(r.Wall.Microseconds()) / 1000}
		if secs := r.Wall.Seconds(); secs > 0 {
			entry.EventsPerSec = float64(rep.Events) / secs
		}
		traj.SumTableWallMS += entry.WallMS
		traj.Tables = append(traj.Tables, entry)
	}
	if traj.TotalWallMS > 0 {
		traj.ParallelSpeedup = traj.SumTableWallMS / traj.TotalWallMS
	}

	if len(planeRuns) > 0 {
		sweep := experiments.NewPlaneSweep(512, fmt.Sprintf("cmd/reproduce -plane, sched %s, batch %v", *sched, *batch))
		sweep.Runs = planeRuns
		if err := experiments.AppendBenchSweep("BENCH_plane.json", "delivery-plane", sweep); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: writing BENCH_plane.json:", err)
			ok = false
		}
	}
	if *scale {
		// The sweep measures wall time per cell, so it runs by itself after
		// the harness tasks have drained.
		mgrs, err := parseScaleManagers(*scaleManagers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		rep, sweep, err := experiments.ScaleSweep(*scaleFaults, mgrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: scale sweep:", err)
			ok = false
		} else {
			os.Stdout.Write(rep.Output)
			ok = ok && rep.OK
			// Compare against the previous recorded sweep before appending
			// this one: the verdict names the worst-moving cell.
			fmt.Println(experiments.ScaleRegressionVerdict(*scaleFile, sweep))
			if err := experiments.AppendBenchSweep(*scaleFile, "scale-sweep", sweep); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: writing", *scaleFile+":", err)
				ok = false
			}
		}
	}
	if *superSweep {
		// The sweep measures wall time per cell, so it runs by itself after
		// the harness tasks have drained.
		mgrs, err := parseManagers(*superManagers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		rep, sweep, err := experiments.SuperpageSweep(*superFaults, mgrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: superpage sweep:", err)
			ok = false
		} else {
			os.Stdout.Write(rep.Output)
			ok = ok && rep.OK
			if err := experiments.AppendBenchSweep(*superFile, "superpage-sweep", sweep); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: writing", *superFile+":", err)
				ok = false
			}
		}
	}

	if *timeTbl {
		// The sweep raises GOMAXPROCS for its widest cell and measures wall
		// time, so run after the harness tasks have drained.
		shards, err := parseManagers(*timeShards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		rep, sweep, err := experiments.TimeSweep(*timeEvents, shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: time sweep:", err)
			ok = false
		} else {
			os.Stdout.Write(rep.Output)
			ok = ok && rep.OK
			if err := experiments.AppendTimeSweep(*timeFile, sweep); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: writing", *timeFile+":", err)
				ok = false
			}
		}
	}

	if *policyTbl {
		// Each cell boots its own kernel, but the allocs/fault column wants
		// a quiet heap, so run after the harness tasks have drained.
		rep, sweep, err := experiments.PolicyShootout(experiments.ShootoutOptions{
			Policies:  splitCSV(*policiesFlag),
			Workloads: splitCSV(*policyWorkloads),
			Refs:      *policyRefs,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: policy shootout:", err)
			ok = false
		} else {
			os.Stdout.Write(rep.Output)
			ok = ok && rep.OK
			if err := experiments.AppendPolicySweep(*policyOut, sweep); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: writing", *policyOut+":", err)
				ok = false
			}
		}
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(traj, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: writing trajectory:", err)
			ok = false
		}
	}
	if !ok {
		if *profileDir != "" {
			writeProfiles(*profileDir)
		}
		os.Exit(1)
	}
}

// parseModes builds the Modes the tables run under from the mode flags,
// rejecting unknown scheduler, time-engine and policy names. -vector=false
// is a vector cap of one fault per upcall.
func parseModes(sched, timeEngine, reclaim string, batch, vector, super bool) (experiments.Modes, error) {
	m := experiments.Modes{
		Kernel: kernel.Config{NoBatch: !batch, Superpages: super},
		Policy: reclaim,
	}
	if !vector {
		m.Kernel.VectorCap = 1
	}
	switch sched {
	case "", "serial":
	case "concurrent":
		m.Kernel.Concurrent = true
	default:
		return m, fmt.Errorf("unknown scheduler %q (want serial or concurrent)", sched)
	}
	switch timeEngine {
	case "", "serial":
	case "sharded":
		m.ShardedTime = true
	default:
		return m, fmt.Errorf("unknown time engine %q (want serial or sharded)", timeEngine)
	}
	if reclaim != "" {
		if _, err := manager.NewPolicy(reclaim); err != nil {
			return m, err
		}
	}
	return m, nil
}

// writeProfiles dumps the mutex and block profiles collected during the
// run (enabled by -profile) into dir, creating it if needed. Errors are
// reported but never change the exit status: profiles are diagnostic
// artifacts, not results.
func writeProfiles(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce: -profile:", err)
		return
	}
	for _, name := range []string{"mutex", "block"} {
		prof := pprof.Lookup(name)
		if prof == nil {
			continue
		}
		path := filepath.Join(dir, name+".pprof")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: -profile:", err)
			continue
		}
		if err := prof.WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: -profile:", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "reproduce: wrote %s\n", path)
	}
}

// splitCSV splits a comma list, dropping empty entries; nil when empty.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseManagers parses the -managers comma list.
// parseScaleManagers is parseManagers with an empty string meaning "use
// the sweep's default ladder" (ScaleSweep fills in 1..32 for a nil list).
func parseScaleManagers(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	return parseManagers(s)
}

func parseManagers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -managers entry %q (want positive integers, comma-separated)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-managers list is empty")
	}
	return out, nil
}
