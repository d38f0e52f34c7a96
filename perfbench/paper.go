package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"epcm/internal/experiments"
)

// The paper workload regenerates the paper's Tables 1-4 exactly as
// cmd/reproduce prints them and checks every pass byte for byte against the
// golden file. It is the only workload on which the sim event engine and the
// db model do the work. The golden output is pinned to the default seed, so
// --seed does not change this workload's inputs.

var paperTables = []struct {
	kind spanKind
	run  func() (*experiments.Report, error)
}{
	{spanTable1, experiments.Table1},
	{spanTables23, experiments.Tables23},
	{spanTable4, func() (*experiments.Report, error) { return experiments.Table4(0, 0) }},
}

// paperPass runs Tables 1-4 once, returning the concatenated output and
// the simulated events driven. A table that fails or panics is counted in
// failed and named in the returned error; the pass goes on.
func paperPass(tr *tracer) (out []byte, events, failed int64, err error) {
	var b bytes.Buffer
	for _, t := range paperTables {
		d := 0
		if tr != nil {
			d = tr.begin(t.kind)
		}
		rep, terr := runTable(t.run)
		if tr != nil {
			tr.end(d)
		}
		if terr != nil {
			failed++
			err = fmt.Errorf("%s: %w", spanNames[t.kind], terr)
			continue
		}
		b.Write(rep.Output)
		events += rep.Events
	}
	return b.Bytes(), events, failed, err
}

// runTable converts the panic an experiment raises on an internal error
// (experiments.check) into an error.
func runTable(fn func() (*experiments.Report, error)) (rep *experiments.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// paperDrivers passes run side by side, one per driver goroutine. With one
// driver the other vCPU idles, and on the host README.md describes
// single-threaded speed then swings with the load on the host; with both
// vCPUs busy, as on fill, it holds steady. The cold passes of the set-up
// run in as many processes at a time, for the same reason.
const paperDrivers = 2

func runPaper(cfg config, tr *tracer) (*phase, error) {
	golden, err := os.ReadFile(cfg.goldenPath)
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	p := newPhase()
	check := func(out []byte, err error) {
		if err != nil {
			p.fail("paper.tables", err)
		}
		if !bytes.Equal(out, golden) {
			i := 0
			for i < len(out) && i < len(golden) && out[i] == golden[i] {
				i++
			}
			p.fail("paper.golden", fmt.Errorf("output diverged from %s at byte %d", cfg.goldenPath, i))
		}
	}

	// Set-up is a cold pass in a fresh process, from its start to its exit:
	// it pays every one-time cost a user of cmd/reproduce pays (process and
	// package initialisation, first use, heap growth), so work moved out of
	// the passes into start-up shows here. The median of several is kept.
	for done := 0; done < cfg.paperColdStarts; done += paperDrivers {
		for _, c := range coldStarts(cfg.goldenPath, min(paperDrivers, cfg.paperColdStarts-done)) {
			if c.err != nil {
				p.fail("paper.cold_pass", c.err)
				continue
			}
			p.setupS = append(p.setupS, c.took.Seconds())
		}
	}

	tracers := make([]*tracer, paperDrivers)
	if tr != nil {
		// One tracer per driver: spans nest per goroutine.
		tracers[0] = tr
		for i := 1; i < paperDrivers; i++ {
			tracers[i] = newTracer()
		}
	}
	type passResult struct {
		out            []byte
		events, failed int64
		err            error
		took           time.Duration
	}
	// round runs one pass per driver, side by side.
	round := func(traced bool) ([]passResult, time.Duration) {
		res := make([]passResult, paperDrivers)
		var wg sync.WaitGroup
		start := time.Now()
		for i := range res {
			var t *tracer
			if traced {
				t = tracers[i]
			}
			wg.Add(1)
			go func(r *passResult, t *tracer) {
				defer wg.Done()
				t0 := time.Now()
				r.out, r.events, r.failed, r.err = paperPass(t)
				r.took = time.Since(t0)
			}(&res[i], t)
		}
		wg.Wait()
		return res, time.Since(start)
	}

	// An untimed warm-up round, checked like every other.
	warm, _ := round(false)
	events := warm[0].events
	for _, r := range warm {
		p.attempted += int64(len(paperTables))
		p.failed += r.failed
		check(r.out, r.err)
		if r.events != events {
			p.fail("paper.determinism", fmt.Errorf("warm-up passes drove %d and %d events", events, r.events))
		}
	}
	p.sim["events_per_pass"] = float64(events)

	if tr != nil {
		p.tracers = tracers
	}
	var window time.Duration
	for window.Seconds() < cfg.seconds || p.episodes == 0 {
		before := readRuntime()
		res, wall := round(tr != nil)
		p.rt.add(before, readRuntime())
		window += wall
		var ev int64
		for _, r := range res {
			p.episodes++
			p.attempted += int64(len(paperTables))
			p.windowOps += int64(len(paperTables))
			p.windowS += r.took.Seconds()
			p.failed += r.failed
			check(r.out, r.err)
			if r.events != events {
				p.fail("paper.determinism", fmt.Errorf("pass %d drove %d events, warm-up pass %d", p.episodes, r.events, events))
			}
			ev += r.events
		}
		if ev > 0 {
			p.opsPerS = append(p.opsPerS, float64(ev)/wall.Seconds())
		}
	}
	p.liveHeapMB = append(p.liveHeapMB, liveHeapMB())
	p.report = []line{
		{"sim_events_per_s", "events/s", median(p.opsPerS)},
		{"pass_s", "s", p.windowS / float64(p.episodes)},
	}
	return p, nil
}

// coldPassEnv makes the benchmark binary run one paper pass and exit; its
// value is the golden file's path. The paper workload starts the binary
// this way to time a cold set-up.
const coldPassEnv = "PERFBENCH_COLD_PASS"

// coldPassMain runs one paper pass, checks it against the golden file at
// goldenPath and returns the process exit code: 0 if it matched.
func coldPassMain(goldenPath string) int {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out, _, _, err := paperPass(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !bytes.Equal(out, golden) {
		fmt.Fprintf(os.Stderr, "output differs from %s\n", goldenPath)
		return 1
	}
	return 0
}

// coldStart is the outcome of one cold pass.
type coldStart struct {
	took time.Duration
	err  error
}

// coldStarts runs n cold passes at once, each in a fresh process of this
// binary on one P, and times each from its process's start to its exit.
func coldStarts(goldenPath string, n int) []coldStart {
	res := make([]coldStart, n)
	self, err := os.Executable()
	if err != nil {
		for i := range res {
			res[i].err = err
		}
		return res
	}
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(c *coldStart) {
			defer wg.Done()
			cmd := exec.Command(self)
			cmd.Env = append(os.Environ(), coldPassEnv+"="+goldenPath, "GOMAXPROCS=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			start := time.Now()
			err := cmd.Run()
			c.took = time.Since(start)
			if err != nil {
				c.err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
			}
		}(&res[i])
	}
	wg.Wait()
	return res
}
