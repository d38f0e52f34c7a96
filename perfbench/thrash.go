package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/workload"
)

// The thrash workload: on each of two machines side by side, one
// application manager under the serial scheduler (the paper's and the
// golden configuration) replays a seeded Zipf
// reference string over the paper machine's 32 768 pages, 70% reads and 30%
// writes, through a fixed frame pool of a quarter of the footprint with
// swap on the NetworkServer store — so clean drops and dirty writebacks
// both occur. It loads the kernel hit path (TLB and the paper's hash
// table), manager reclaim, policy victim selection and storage; it bypasses
// the SPCM, the concurrent plane and the CAS table.
//
// The pages are touched in Zipf order, not page order, so the manager's
// resident index sees far pages before near ones. The workload must not
// presize the index, shrink the footprint or split it: an Access error is
// counted as one failed op and the replay goes on.

const (
	zipfSkew      = 1.1 // as in the policy shootout
	writeFraction = 0.3
	policyName    = "clock" // the paper's §2.2 policy, the boot default
)

// thrashInput is one generated reference string.
type thrashInput struct {
	pages []int64
	kinds []kernel.AccessType
}

// thrashDrivers replays run side by side, one per driver goroutine, each on
// its own machine. With one driver the other vCPU idles, and on the host
// README.md describes single-threaded speed then swings with the load on
// the host; with both vCPUs busy, as on fill, it holds steady.
const thrashDrivers = 2

// roundsPerSecond sizes a run: thrash replays a fixed number of rounds,
// round(--seconds × roundsPerSecond) and at least one, instead of stopping
// on the clock, so that a run's attempted and failed counts depend on the
// seed and --seconds alone. One round, set-up included, takes about 0.7 s
// on the host README.md describes.
const roundsPerSecond = 1.5

func thrashRounds(seconds float64) int {
	return max(1, int(math.Round(seconds*roundsPerSecond)))
}

// replaySeed derives the input seed of replay e. Replays 0 and 1 both
// replay the string of the seed itself, so every run checks that a replay
// repeats exactly; later replays draw fresh strings, so one run measures
// many inputs and runs with different seeds measure alike.
func replaySeed(seed uint64, e int) uint64 {
	if e <= 1 {
		return seed
	}
	return seed ^ uint64(e)*0x9e3779b97f4a7c15
}

func genThrash(cfg config, seed uint64) thrashInput {
	in := thrashInput{
		pages: workload.ZipfRefs(cfg.thrashPages, cfg.thrashRefs, zipfSkew, seed),
		kinds: make([]kernel.AccessType, cfg.thrashRefs),
	}
	rng := sim.NewRNG(^seed)
	for i := range in.kinds {
		if rng.Float64() < writeFraction {
			in.kinds[i] = kernel.Write
		} else {
			in.kinds[i] = kernel.Read
		}
	}
	return in
}

// thrashOutcome is the simulated result of one replay; every field is
// deterministic for a seed.
type thrashOutcome struct {
	faults, failed, firstFail int64
	model                     time.Duration
	reclaims, fetches, stores int64
	firstFailPage             int64
	firstFailErr              string
}

// thrashMachine is one booted thrash system and its input.
type thrashMachine struct {
	in    thrashInput
	k     *kernel.Kernel
	clock *sim.Clock
	g     *manager.Generic
	seg   *kernel.Segment
	store *storage.Store
}

func bootThrash(cfg config, seed uint64, tr *tracer, p *phase) (*thrashMachine, error) {
	start := time.Now()
	m := &thrashMachine{in: genThrash(cfg, seed), clock: new(sim.Clock)}
	refgen := time.Since(start)
	t := time.Now()
	frames := cfg.thrashPages / 4
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: (frames + 64) * frameSize, StoreData: true})
	m.k = kernel.New(mem, m.clock, sim.DECstation5000(), kernel.Config{})
	kernelNew := time.Since(t)
	pool, err := manager.NewFixedPool(m.k, frames, 0)
	if err != nil {
		return nil, err
	}
	pol, err := manager.NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	m.store = storage.NewStore(m.clock, storage.NetworkServer(), frameSize)
	var bs storage.BlockStore = m.store
	var src manager.FrameSource = pool
	if tr != nil {
		bs = tracedStore{m.store, tr}
		src = traceSource(pool, tr, new(sourceCounts))
		pol = tracePolicy(pol, tr)
	}
	m.g, err = manager.NewGeneric(m.k, manager.Config{
		Name:    "thrash",
		Backing: manager.NewSwapBacking(bs),
		Source:  src,
		Policy:  pol,
	})
	if err != nil {
		return nil, err
	}
	if m.seg, err = m.g.CreateManagedSegment("thrash-data"); err != nil {
		return nil, err
	}
	p.setupS = append(p.setupS, time.Since(start).Seconds())
	p.setupParts["setup.refgen_s"] = append(p.setupParts["setup.refgen_s"], refgen.Seconds())
	p.setupParts["setup.kernel_new_s"] = append(p.setupParts["setup.kernel_new_s"], kernelNew.Seconds())
	return m, nil
}

// replay runs m's reference string, closed loop, and returns its
// simulated outcome and the window's wall time. Every latencyStride-th
// Access is timed into lat.
func (m *thrashMachine) replay(tr *tracer, lat *[]time.Duration) (thrashOutcome, time.Duration) {
	out := thrashOutcome{firstFail: -1}
	t0 := time.Now()
	for i, pg := range m.in.pages {
		var a0 time.Time
		if i%latencyStride == 0 {
			a0 = time.Now()
		}
		d := 0
		if tr != nil {
			d = tr.begin(spanAccess)
		}
		err := m.k.Access(m.seg, pg, m.in.kinds[i])
		if tr != nil {
			tr.end(d)
		}
		if i%latencyStride == 0 {
			*lat = append(*lat, time.Since(a0))
		}
		if err != nil {
			out.failed++
			if out.firstFail < 0 {
				out.firstFail, out.firstFailPage, out.firstFailErr = int64(i), pg, err.Error()
			}
		}
	}
	return out, time.Since(t0)
}

func runThrash(cfg config, tr *tracer) (*phase, error) {
	p := newPhase()
	var tracers []*tracer
	if tr != nil {
		// One tracer per driver: spans nest per goroutine.
		tracers = []*tracer{tr}
		for len(tracers) < thrashDrivers {
			tracers = append(tracers, newTracer())
		}
		p.tracers = tracers
	}
	var first thrashOutcome
	var kd kernelDelta
	var reclaims, fetches, stores int64
	lat := make([][]time.Duration, thrashDrivers)
	for i := range lat {
		lat[i] = make([]time.Duration, 0, cfg.thrashRefs/latencyStride+1)
	}
	for round := 0; round < thrashRounds(cfg.seconds); round++ {
		// Set-up, one machine after the other: generate the inputs, boot
		// the machine, build the manager.
		ms := make([]*thrashMachine, thrashDrivers)
		for i := range ms {
			var t *tracer
			if tracers != nil {
				t = tracers[i]
			}
			m, err := bootThrash(cfg, replaySeed(cfg.seed, p.episodes+i), t, p)
			if err != nil {
				for _, m := range ms[:i] {
					m.k.Scheduler().Stop()
				}
				return nil, err
			}
			ms[i] = m
		}

		// The measured window: both replays side by side.
		outs := make([]thrashOutcome, thrashDrivers)
		walls := make([]time.Duration, thrashDrivers)
		k0 := make([]kernel.Stats, thrashDrivers)
		for i, m := range ms {
			m.clock.Reset()
			k0[i] = m.k.Stats()
			lat[i] = lat[i][:0]
		}
		var wg sync.WaitGroup
		before := readRuntime()
		start := time.Now()
		for i, m := range ms {
			var t *tracer
			if tracers != nil {
				t = tracers[i]
			}
			wg.Add(1)
			go func(i int, m *thrashMachine, t *tracer) {
				defer wg.Done()
				outs[i], walls[i] = m.replay(t, &lat[i])
			}(i, m, t)
		}
		wg.Wait()
		wall := time.Since(start)
		p.rt.add(before, readRuntime())
		var completed, resident int64
		for i, m := range ms {
			out := outs[i]
			n := int64(len(m.in.pages))
			p.attempted += n
			p.windowOps += n
			p.failed += out.failed
			completed += n - out.failed
			p.windowS += walls[i].Seconds()
			p.addLatencies(lat[i])

			ks, gs := m.k.Stats(), m.g.Stats()
			kd.add(k0[i], ks)
			out.faults = ks.Faults - k0[i].Faults
			out.model = m.clock.Now()
			out.reclaims, out.fetches, out.stores = gs.Reclaims, m.store.Reads(), m.store.Writes()
			reclaims += out.reclaims
			fetches += out.fetches
			stores += out.stores
			p.faults += out.faults
			resident += int64(m.g.ResidentPages())

			// Output checks, outside the measured window.
			if err := m.k.CheckFrameConservation(); err != nil {
				p.fail("thrash.frame_conservation", err)
			}
			switch p.episodes {
			case 0:
				first = out
			case 1:
				if out != first {
					p.fail("thrash.determinism", fmt.Errorf("second replay %+v, first %+v", out, first))
				}
			}
			ep := fmt.Sprintf("replay%d.", p.episodes)
			p.sim[ep+"faults"] = float64(out.faults)
			p.sim[ep+"failed"] = float64(out.failed)
			p.sim[ep+"first_failed_ref"] = float64(out.firstFail)
			p.sim[ep+"model_ns"] = float64(out.model)
			p.sim[ep+"reclaims"] = float64(out.reclaims)
			p.episodes++
		}
		p.opsPerS = append(p.opsPerS, float64(completed)/wall.Seconds())
		heap := liveHeapMB()
		p.liveHeapMB = append(p.liveHeapMB, heap)
		p.heapPerPage = append(p.heapPerPage, ratio(heap*(1<<20), float64(resident)))
		for _, m := range ms {
			m.k.Scheduler().Stop()
		}
	}
	kd.record(p, p.episodes)
	f := float64(p.faults)
	p.layer["manager.reclaims_per_fault"] = ratio(float64(reclaims), f)
	p.layer["storage.fetches_per_fault"] = ratio(float64(fetches), f)
	p.layer["storage.stores_per_fault"] = ratio(float64(stores), f)
	refs := float64(cfg.thrashRefs)
	hit := 1 - float64(first.faults)/refs
	modelUS := float64(first.model.Nanoseconds()) / 1e3 / refs
	p.layer["model.hit_rate"] = hit
	p.layer["model.us_per_op"] = modelUS
	p.report = []line{
		{"refs_per_s", "refs/s", median(p.opsPerS)},
		{"access_p50_us", "us", median(p.p50us)},
		{"hit_rate", "ratio", hit},
		{"model_us_per_ref", "us", modelUS},
		{"failed_share", "ratio", float64(p.failed) / float64(p.attempted)},
	}
	if first.firstFail >= 0 {
		fmt.Printf("thrash: seed %d: first failed reference %d (page %d) of %d, %d failed: %s\n",
			cfg.seed, first.firstFail, first.firstFailPage, cfg.thrashRefs, first.failed, first.firstFailErr)
	}
	return p, nil
}
