package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"epcm/internal/sim"
)

// The time sweep is the acceptance experiment for the sharded virtual-time
// engine: the same total simulated work — sleeping processes with
// horizon-respecting cross-shard messages — divided over 1..N shards. The
// acceptance metric is *model* throughput, events per second of simulated
// makespan (the maximum final shard clock): with the work split across n
// independent local clocks the makespan shrinks roughly n-fold while the
// event count stays fixed, so model events/sec must scale with shards. Wall
// events/sec is recorded alongside but is advisory — on a host without a
// core per shard the window goroutines time-slice, exactly like the wall
// column of the plane scale sweep. Results append to BENCH_time.json.

// TimeCell is one grid cell of the sweep.
type TimeCell struct {
	Engine string `json:"engine"` // serial | sharded
	Shards int    `json:"shards"`
	Procs  int    `json:"procs"` // simulated processes per shard
	Steps  int    `json:"steps"` // sleep steps per process
	Events int64  `json:"events"`
	// Windows is how many conservative lookahead windows the run took
	// (zero on the serial engine).
	Windows    int64 `json:"windows,omitempty"`
	CrossSends int64 `json:"cross_sends"`
	// MakespanMS is the maximum final shard clock, in virtual milliseconds.
	MakespanMS float64 `json:"makespan_ms"`
	// ModelEventsPerSec is events per second of virtual makespan — the
	// deterministic scaling metric.
	ModelEventsPerSec float64 `json:"model_events_per_sec"`
	WallEventsPerSec  float64 `json:"wall_events_per_sec"`
}

// TimeSweepResult is one recorded sweep of the grid.
type TimeSweepResult struct {
	GeneratedAt string     `json:"generated_at"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu,omitempty"`
	Note        string     `json:"note,omitempty"`
	Cells       []TimeCell `json:"cells"`
	// ModelScaling1To4 is sharded model events/sec at 4 shards over 1
	// shard — the >= 1.5x acceptance number.
	ModelScaling1To4 float64 `json:"model_scaling_1_to_4_shards,omitempty"`
}

// timeBenchFile is the on-disk shape of BENCH_time.json.
type timeBenchFile struct {
	Benchmark string             `json:"benchmark"`
	Sweeps    []*TimeSweepResult `json:"sweeps"`
}

// AppendTimeSweep appends a sweep to the BENCH_time.json trajectory,
// creating the file if absent — append-only, like the other BENCH files.
func AppendTimeSweep(path string, sweep *TimeSweepResult) error {
	f := &timeBenchFile{Benchmark: "TimeEngine"}
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, f); err != nil {
			return fmt.Errorf("experiments: %s: %w", path, err)
		}
	}
	f.Sweeps = append(f.Sweeps, sweep)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// DiffTimeSweeps renders a per-cell diff (model and wall events/sec) of the
// last two sweeps in the trajectory file.
func DiffTimeSweeps(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var f timeBenchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return "", fmt.Errorf("experiments: %s: %w", path, err)
	}
	if len(f.Sweeps) < 2 {
		return fmt.Sprintf("%s: %d sweep(s) recorded; need two to diff\n", path, len(f.Sweeps)), nil
	}
	prev, cur := f.Sweeps[len(f.Sweeps)-2], f.Sweeps[len(f.Sweeps)-1]
	old := map[string]TimeCell{}
	for _, c := range prev.Cells {
		old[fmt.Sprintf("%s/%d", c.Engine, c.Shards)] = c
	}
	b := &bytes.Buffer{}
	fmt.Fprintf(b, "time engine diff: %s -> %s\n", prev.GeneratedAt, cur.GeneratedAt)
	fmt.Fprintf(b, "%-8s %7s %16s %16s %16s %16s\n",
		"Engine", "Shards", "model old(ev/s)", "model new(ev/s)", "wall old(ev/s)", "wall new(ev/s)")
	for _, c := range cur.Cells {
		o, ok := old[fmt.Sprintf("%s/%d", c.Engine, c.Shards)]
		if !ok {
			fmt.Fprintf(b, "%-8s %7d %16s %16.0f %16s %16.0f  (new cell)\n",
				c.Engine, c.Shards, "-", c.ModelEventsPerSec, "-", c.WallEventsPerSec)
			continue
		}
		mark := ""
		if c.ModelEventsPerSec < 0.9*o.ModelEventsPerSec {
			mark = "  <- model throughput regressed"
		}
		fmt.Fprintf(b, "%-8s %7d %16.0f %16.0f %16.0f %16.0f%s\n",
			c.Engine, c.Shards, o.ModelEventsPerSec, c.ModelEventsPerSec,
			o.WallEventsPerSec, c.WallEventsPerSec, mark)
	}
	return b.String(), nil
}

// timeSweepReps is how many times each cell runs for the wall-clock column;
// the model metric is deterministic so the first run settles it.
const timeSweepReps = 3

// timeCell runs one cell: procsPerShard processes per shard, each sleeping
// through `steps` virtual-time steps, with every 64th step posting a
// cross-shard message at the lookahead horizon plus jitter. Returns the
// measured cell; the virtual-time side is identical across repetitions.
func timeCell(engine string, shards, procsPerShard, steps int) (*TimeCell, error) {
	var (
		cell  *TimeCell
		cross atomic.Int64
	)
	for rep := 0; rep < timeSweepReps; rep++ {
		cross.Store(0)
		var e *sim.Env
		switch engine {
		case "serial":
			if shards != 1 {
				return nil, fmt.Errorf("experiments: serial time cell wants 1 shard, got %d", shards)
			}
			e = sim.NewEnv(&sim.Clock{})
		case "sharded":
			e = sim.NewShardedEnv(&sim.Clock{}, shards, 0)
		default:
			return nil, fmt.Errorf("experiments: unknown time engine %q", engine)
		}
		L := e.Lookahead()
		for i := 0; i < e.NumShards(); i++ {
			i := i
			sh := e.Shard(i)
			for pid := 0; pid < procsPerShard; pid++ {
				rng := sim.NewRNG(uint64(1992 + i*1024 + pid))
				sh.Go(fmt.Sprintf("s%d-p%d", i, pid), func(p *sim.Proc) {
					for step := 0; step < steps; step++ {
						p.Sleep(time.Duration(1+rng.Intn(200)) * time.Microsecond)
						if shards > 1 && step%64 == 0 {
							dst := e.Shard((i + 1 + rng.Intn(shards-1)) % shards)
							at := p.Now() + L + time.Duration(rng.Intn(50))*time.Microsecond
							p.Shard().Send(dst, at, func() { cross.Add(1) })
						}
					}
				})
			}
		}
		start := time.Now()
		if blocked := e.Run(); blocked != 0 {
			return nil, fmt.Errorf("experiments: time cell %s/%d left %d procs blocked", engine, shards, blocked)
		}
		wall := time.Since(start).Seconds()
		var makespan time.Duration
		for i := 0; i < e.NumShards(); i++ {
			if now := e.Shard(i).Now(); now > makespan {
				makespan = now
			}
		}
		events := e.EventsProcessed()
		wallRate := 0.0
		if wall > 0 {
			wallRate = float64(events) / wall
		}
		if cell == nil {
			cell = &TimeCell{
				Engine:     engine,
				Shards:     shards,
				Procs:      procsPerShard,
				Steps:      steps,
				Events:     events,
				Windows:    e.Windows(),
				CrossSends: cross.Load(),
				MakespanMS: float64(makespan.Microseconds()) / 1000,
			}
			if makespan > 0 {
				cell.ModelEventsPerSec = float64(events) / makespan.Seconds()
			}
		} else if cell.Events != events || cell.CrossSends != cross.Load() {
			return nil, fmt.Errorf("experiments: time cell %s/%d not deterministic across reps", engine, shards)
		}
		if wallRate > cell.WallEventsPerSec {
			cell.WallEventsPerSec = wallRate
		}
	}
	return cell, nil
}

// timeSweepProcs is how many simulated processes each shard runs.
const timeSweepProcs = 8

// TimeSweep runs the virtual-time engine scaling grid: the serial baseline
// plus the sharded engine at each shard count, every cell driving the same
// total number of sleep steps. totalSteps <= 0 selects the default
// (256 per process at the widest cell); empty shardCounts selects 1, 2, 4, 8.
// Returns the rendered report and the sweep for BENCH_time.json.
func TimeSweep(totalSteps int, shardCounts []int) (*Report, *TimeSweepResult, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	maxShards := 0
	for _, n := range shardCounts {
		if n > maxShards {
			maxShards = n
		}
	}
	if totalSteps <= 0 {
		totalSteps = 256 * timeSweepProcs * maxShards
	}
	if runtime.GOMAXPROCS(0) < maxShards {
		prev := runtime.GOMAXPROCS(maxShards)
		defer runtime.GOMAXPROCS(prev)
	}
	sweep := &TimeSweepResult{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Note: fmt.Sprintf("time engine sweep: serial baseline + sharded x shards, %d total steps, equal work per cell, wall best of %d",
			totalSteps, timeSweepReps),
	}
	rep := &Report{Table: "time"}
	b := &bytes.Buffer{}
	header(b, "Virtual-Time Engine Scaling (not in paper; sharded conservative DES)")
	fmt.Fprintf(b, "gomaxprocs=%d num_cpu=%d lookahead=%v\n",
		sweep.GoMaxProcs, sweep.NumCPU, sim.DECstation5000().MinDeliveryLatency())
	if sweep.NumCPU < maxShards {
		fmt.Fprintf(b, "warning: host has %d CPUs for up to %d shards; wall column time-slices, model column is the metric\n",
			sweep.NumCPU, maxShards)
	}
	fmt.Fprintf(b, "%-8s %7s %7s %7s %10s %9s %7s %13s %17s %16s\n",
		"Engine", "Shards", "Procs", "Steps", "Events", "Windows", "Sends", "Makespan(ms)", "Model events/s", "Wall events/s")
	model := map[int]float64{} // sharded: shards -> model events/s
	cells := []struct {
		engine string
		shards int
	}{{"serial", 1}}
	for _, n := range shardCounts {
		cells = append(cells, struct {
			engine string
			shards int
		}{"sharded", n})
	}
	for _, c := range cells {
		steps := totalSteps / (timeSweepProcs * c.shards)
		if steps < 64 {
			steps = 64
		}
		cell, err := timeCell(c.engine, c.shards, timeSweepProcs, steps)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(b, "%-8s %7d %7d %7d %10d %9d %7d %13.1f %17.0f %16.0f\n",
			cell.Engine, cell.Shards, cell.Procs, cell.Steps, cell.Events, cell.Windows,
			cell.CrossSends, cell.MakespanMS, cell.ModelEventsPerSec, cell.WallEventsPerSec)
		if c.engine == "sharded" {
			model[c.shards] = cell.ModelEventsPerSec
		}
		rep.Events += cell.Events
		sweep.Cells = append(sweep.Cells, *cell)
	}
	// Acceptance: model throughput monotonically non-decreasing across the
	// sharded row up to 4 shards, and >= 1.5x at 4 shards over 1.
	mono := true
	prevM := 0.0
	for _, n := range shardCounts {
		if n > 4 {
			break
		}
		m, ok := model[n]
		if !ok {
			continue
		}
		if m < prevM {
			mono = false
		}
		prevM = m
	}
	fmt.Fprintf(b, "\nsharded model events/s non-decreasing 1..4 shards: %v\n", mono)
	scaling := 0.0
	if s1, s4 := model[1], model[4]; s1 > 0 && s4 > 0 {
		scaling = s4 / s1
		sweep.ModelScaling1To4 = scaling
	}
	fmt.Fprintf(b, "model scaling, 4 shards vs 1 (sharded): %.2fx (target >= 1.5x)\n", scaling)
	rep.OK = mono && scaling >= 1.5
	rep.Output = b.Bytes()
	rep.Measures = append(rep.Measures, Measure{
		Name:     "time_model_scaling_4_shards_vs_1",
		Measured: scaling,
		Unit:     "x",
	})
	return rep, sweep, nil
}
