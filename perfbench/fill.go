package main

import (
	"fmt"
	"sync"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// The fill workload: two applications, each with its own separate-process
// manager, first-touch a fresh working set in page order over one SPCM
// under the concurrent scheduler, one driver goroutine each (closed loop:
// a driver issues its next Access when the previous one returns). Memory
// is twice the working set, so nothing is evicted: every Access is one
// missing fault served by an SPCM grant. It loads the concurrent kernel
// fault path, the SPCM and the phys free list, the set-up of a large
// machine, and GC over many resident pages; it bypasses the policy,
// storage, db and sim layers. The seed does not change the inputs: the
// working set is touched in order by design.

const (
	fillManagers  = 2
	frameSize     = 4096
	latencyStride = 8 // every 8th Access is timed on its own
)

// fillMachine is one booted fill system.
type fillMachine struct {
	k      *kernel.Kernel
	clock  *sim.Clock
	spcm   *spcm.SPCM
	segs   []*kernel.Segment
	counts []*sourceCounts
}

func bootFill(cfg config, tracers []*tracer, p *phase) (*fillMachine, error) {
	start := time.Now()
	m := &fillMachine{clock: new(sim.Clock)}
	workingSet := int64(fillManagers) * int64(cfg.fillPages) * frameSize
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: 2*workingSet + 8<<20})
	m.k = kernel.New(mem, m.clock, sim.DECstation5000(), kernel.Config{})
	m.k.SetScheduler(kernel.NewConcurrentScheduler(m.k))
	kernelNew := time.Since(start)
	t := time.Now()
	// Per-account frame caches over the shared free list, as in the
	// delivery-plane experiments.
	pol := spcm.DefaultPolicy()
	pol.LaneCacheRefill = 512
	m.spcm = spcm.New(m.k, pol)
	spcmNew := time.Since(t)
	for i := 0; i < fillManagers; i++ {
		var store storage.BlockStore = storage.NewStore(m.clock, storage.NetworkServer(), frameSize)
		var src manager.FrameSource = m.spcm
		if tracers != nil {
			c := new(sourceCounts)
			m.counts = append(m.counts, c)
			src = traceSource(src, tracers[i], c)
			store = tracedStore{store, tracers[i]}
		}
		g, err := manager.NewGeneric(m.k, manager.Config{
			Name:         fmt.Sprintf("fill-%d", i),
			Delivery:     kernel.DeliverSeparateProcess,
			Backing:      manager.NewSwapBacking(store),
			Source:       src,
			RequestBatch: 32,
			LanePrefetch: 256,
		})
		if err != nil {
			m.k.Scheduler().Stop()
			return nil, err
		}
		m.spcm.Register(g, g.ManagerName(), 1e9)
		seg, err := g.CreateManagedSegment(fmt.Sprintf("fill-app-%d", i))
		if err == nil {
			err = g.EnsureFree(8)
		}
		if err != nil {
			m.k.Scheduler().Stop()
			return nil, err
		}
		m.segs = append(m.segs, seg)
	}
	p.setupS = append(p.setupS, time.Since(start).Seconds())
	p.setupParts["setup.kernel_new_s"] = append(p.setupParts["setup.kernel_new_s"], kernelNew.Seconds())
	p.setupParts["setup.spcm_new_s"] = append(p.setupParts["setup.spcm_new_s"], spcmNew.Seconds())
	return m, nil
}

func runFill(cfg config, tr *tracer) (*phase, error) {
	p := newPhase()
	var tracers []*tracer
	if tr != nil {
		// One tracer per driver: spans nest per goroutine.
		tracers = []*tracer{tr}
		for len(tracers) < fillManagers {
			tracers = append(tracers, newTracer())
		}
		p.tracers = tracers
	}
	var kd kernelDelta
	var refused, requests, frames, modelNs int64
	lat := make([][]time.Duration, fillManagers)
	for i := range lat {
		lat[i] = make([]time.Duration, 0, cfg.fillPages/latencyStride+1)
	}
	// A round's boot and audits take longer than its window, so the run
	// ends on the time since the first round began, checks included; it
	// then lasts about --seconds.
	begin := time.Now()
	for last := false; !last; {
		m, err := bootFill(cfg, tracers, p)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		refused0 := m.spcm.Stats().Refused
		k0 := m.k.Stats()
		m.clock.Reset()
		errs := make([]int64, fillManagers)
		firstErr := make([]error, fillManagers)
		walls := make([]time.Duration, fillManagers)
		var wg sync.WaitGroup
		before := readRuntime()
		start := time.Now()
		for i := range m.segs {
			lat[i] = lat[i][:0]
			var t *tracer
			if tracers != nil {
				t = tracers[i]
			}
			wg.Add(1)
			go func(i int, seg *kernel.Segment, t *tracer) {
				defer wg.Done()
				t0 := time.Now()
				for pg := int64(0); pg < int64(cfg.fillPages); pg++ {
					var a0 time.Time
					if pg%latencyStride == 0 {
						a0 = time.Now()
					}
					d := 0
					if t != nil {
						d = t.begin(spanAccess)
					}
					err := m.k.Access(seg, pg, kernel.Write)
					if t != nil {
						t.end(d)
					}
					if pg%latencyStride == 0 {
						lat[i] = append(lat[i], time.Since(a0))
					}
					if err != nil {
						errs[i]++
						if firstErr[i] == nil {
							firstErr[i] = fmt.Errorf("page %d: %w", pg, err)
						}
					}
				}
				walls[i] = time.Since(t0)
			}(i, m.segs[i], t)
		}
		wg.Wait()
		wall := time.Since(start)
		p.rt.add(before, readRuntime())
		p.episodes++
		touched := int64(fillManagers) * int64(cfg.fillPages)
		p.attempted += touched
		p.windowOps += touched
		for i := range m.segs {
			p.failed += errs[i]
			if firstErr[i] != nil {
				p.fail("fill.access", firstErr[i])
			}
			p.addLatencies(lat[i])
			p.windowS += walls[i].Seconds()
		}
		last = time.Since(begin).Seconds() >= cfg.seconds
		ks := m.k.Stats()
		roundFaults := ks.Faults - k0.Faults
		p.opsPerS = append(p.opsPerS, float64(roundFaults)/wall.Seconds())
		p.faults += roundFaults
		kd.add(k0, ks)
		refused += m.spcm.Stats().Refused - refused0
		modelNs += int64(m.clock.Now())
		for _, c := range m.counts {
			requests += c.requests.Load()
			frames += c.frames.Load()
		}

		// Output checks, outside the measured window.
		if roundFaults != touched {
			p.fail("fill.faults", fmt.Errorf("round %d: %d faults for %d pages touched", p.episodes, roundFaults, touched))
		}
		resident := int64(0)
		for _, seg := range m.segs {
			for pg := int64(0); pg < int64(cfg.fillPages); pg++ {
				if seg.HasPage(pg) {
					resident++
				}
			}
		}
		if resident != touched {
			p.fail("fill.resident", fmt.Errorf("round %d: %d of %d touched pages resident", p.episodes, resident, touched))
		}
		// The full audits walk every frame of the machine and cost more
		// than a round, so they run on the first and the last round.
		if p.episodes == 1 || last {
			if err := m.k.CheckFrameConservation(); err != nil {
				p.fail("fill.frame_conservation", err)
			}
			if err := m.spcm.CheckInvariants(); err != nil {
				p.fail("fill.spcm_invariants", err)
			}
		}
		heap := liveHeapMB()
		p.liveHeapMB = append(p.liveHeapMB, heap)
		p.heapPerPage = append(p.heapPerPage, ratio(heap*(1<<20), float64(resident)))
		m.k.Scheduler().Stop()
	}
	n := float64(p.episodes)
	kd.record(p, p.episodes)
	p.layer["spcm.refused"] = float64(refused) / n
	if tracers != nil {
		p.layer["spcm.requests"] = float64(requests) / n
		p.layer["spcm.frames_per_request"] = ratio(float64(frames), float64(requests))
	}
	p.layer["model.us_per_op"] = ratio(float64(modelNs)/1e3, float64(p.faults))
	// Every access is a missing fault: nothing is ever a hit.
	p.layer["model.hit_rate"] = 0
	p.sim["faults_per_round"] = float64(p.faults) / n
	p.report = []line{
		{"faults_per_s", "faults/s", median(p.opsPerS)},
		{"access_p50_us", "us", median(p.p50us)},
		{"heap_bytes_per_page", "B/page", median(p.heapPerPage)},
		{"model_us_per_fault", "us", p.layer["model.us_per_op"]},
	}
	return p, nil
}
