package experiments

import (
	"bytes"
	"fmt"
	"runtime"
)

// The superpage sweep is the wall-clock acceptance experiment for the
// extent fast path: a dense sequential working set is faulted in by N
// separate-process managers, once over the base-page path and once with
// superpage extents on (manager.Config.ExtentOrder = superExtentOrder on a
// kernel booted with Superpages by PlaneThroughput). In the
// superpage arm one fault fills a whole naturally aligned extent through a
// contiguous grant and installs a single mapping/TLB entry, so the headline
// number is resident base pages made per wall second, not faults per
// second — the super arm takes ~2^order fewer faults to build the same
// working set.

// superExtentOrder is the extent order of the sweep's superpage arm:
// 2^4 = 16 base pages (64 KB extents on the 4 KB base page), inside the
// kernel's MaxExtentOrder and large enough that the per-extent economics
// dominate the per-page residue.
const superExtentOrder = 4

// superReps is the per-cell repetition count for the superpage sweep's
// best-of estimator. It is higher than the scale sweep's because two of
// these cells gate acceptance on a wall-clock ratio, and on a shared host
// the minimum-cost estimate needs more draws to converge.
const superReps = 7

// SuperpageSweep runs the superpage acceptance matrix: manager counts ×
// {base, super} under the concurrent scheduler with batching on, equal
// total work per cell, best of superReps runs. Gates: the super arm must
// build resident pages at least twice as fast as the base arm at 8
// managers, and must not get slower from 8 to 16 managers.
func SuperpageSweep(faultsPerManager int, managers []int) (*Report, *PlaneSweep, error) {
	if len(managers) == 0 {
		managers = []int{8, 16}
	}
	if faultsPerManager <= 0 {
		faultsPerManager = 32768
	}
	maxMgrs := 0
	for _, n := range managers {
		if n > maxMgrs {
			maxMgrs = n
		}
	}
	if runtime.GOMAXPROCS(0) < maxMgrs {
		prev := runtime.GOMAXPROCS(maxMgrs)
		defer runtime.GOMAXPROCS(prev)
	}
	sweep := NewPlaneSweep(faultsPerManager,
		fmt.Sprintf("superpage sweep: managers x {base, extent order %d}, concurrent+batched, equal-work cells, best of %d runs per cell",
			superExtentOrder, superReps))
	rep := &Report{Table: "super"}
	b := &bytes.Buffer{}
	header(b, "Superpage Extent Fast Path (not in paper; one mapping entry per extent)")
	fmt.Fprintf(b, "gomaxprocs=%d num_cpu=%d extent_order=%d (%d pages/extent)\n",
		sweep.GoMaxProcs, sweep.NumCPU, superExtentOrder, 1<<superExtentOrder)
	if sweep.NumCPU < maxMgrs {
		fmt.Fprintf(b, "warning: host has %d CPUs for up to %d managers; wide cells time-slice rather than run in parallel\n",
			sweep.NumCPU, maxMgrs)
	}
	fmt.Fprintf(b, "%-6s %9s %10s %15s %15s %9s %9s %13s %9s %9s\n",
		"Arm", "Managers", "Faults", "Wall pages/s", "Wall faults/s", "Fidelity", "TLBreach", "Allocs/fault", "p50(us)", "p99(us)")
	// The repetition loop is outermost so that every round visits every
	// cell back-to-back: the acceptance gates are ratios between cells, and
	// on a shared host the dominant error is slow drift in available CPU.
	// Interleaving puts both sides of each ratio in the same drift regime;
	// running one arm's reps minutes after the other's lets a quiet spell
	// inflate one side only.
	pages := map[string]float64{} // "order/n" -> wall pages/s
	best := map[string]*PlaneResult{}
	for try := 0; try < superReps; try++ {
		for _, order := range []int{0, superExtentOrder} {
			for _, n := range managers {
				// Equal total work across cells, as in the scale sweep:
				// every cell makes the same number of base pages resident.
				fpm := 4 * faultsPerManager / n
				if fpm < 1024 {
					fpm = 1024
				}
				one, err := PlaneThroughput(PlaneOptions{
					Scheduler:        "concurrent",
					Managers:         n,
					FaultsPerManager: fpm,
					ExtentOrder:      order,
				})
				if err != nil {
					return nil, nil, err
				}
				rep.Events += one.Faults
				key := fmt.Sprintf("%d/%d", order, n)
				if r := best[key]; r == nil || one.WallPagesPerSec > r.WallPagesPerSec {
					best[key] = one
				}
			}
		}
	}
	for _, order := range []int{0, superExtentOrder} {
		arm := "base"
		if order > 0 {
			arm = "super"
		}
		for _, n := range managers {
			r := best[fmt.Sprintf("%d/%d", order, n)]
			fmt.Fprintf(b, "%-6s %9d %10d %15.0f %15.0f %9.3f %9.2f %13.3f %9.2f %9.2f\n",
				arm, r.Managers, r.Faults, r.WallPagesPerSec, r.WallFaultsPerSec,
				r.HitFidelity, r.TLBReachPages, r.AllocsPerFault, r.P50FaultUS, r.P99FaultUS)
			pages[fmt.Sprintf("%d/%d", order, n)] = r.WallPagesPerSec
			sweep.Runs = append(sweep.Runs, *r)
		}
	}
	// Gate 1: at the first swept manager count (8 in the acceptance run)
	// the extent path must at least double the rate at which the working
	// set becomes resident.
	gateN := managers[0]
	speedup := 0.0
	if base, super := pages[fmt.Sprintf("0/%d", gateN)], pages[fmt.Sprintf("%d/%d", superExtentOrder, gateN)]; base > 0 {
		speedup = super / base
		if gateN == 8 {
			sweep.SuperSpeedup8Mgr = speedup
		}
	}
	fmt.Fprintf(b, "\nwall pages/s speedup, %d managers, superpages vs base pages: %.2fx (target >= 2x)\n", gateN, speedup)
	// Gate 2: the super arm must not get slower as managers are added —
	// contiguous allocation must not serialize the lanes. Serialization
	// shows up as a collapse (the lanes convoy on the grant lock), not a
	// jitter dip, so the comparison tolerates small wall-clock noise: on a
	// time-sliced host the 8- and 16-manager cells run the same total work
	// on the same cores and their best-of-reps rates differ by measurement
	// scatter even at identical throughput.
	const monoNoise = 0.95
	prevW, mono := 0.0, true
	for _, n := range managers {
		w, ok := pages[fmt.Sprintf("%d/%d", superExtentOrder, n)]
		if !ok {
			continue
		}
		if w < prevW*monoNoise {
			mono = false
		}
		if w > prevW {
			prevW = w
		}
	}
	fmt.Fprintf(b, "superpage wall pages/s non-decreasing (within %.0f%% noise) over %v managers: %v\n",
		(1-monoNoise)*100, managers, mono)
	rep.OK = speedup >= 2 && mono
	rep.Output = b.Bytes()
	rep.Measures = append(rep.Measures, Measure{
		Name:     "super_wall_pages_speedup_8mgr_vs_base",
		Measured: speedup,
		Unit:     "x",
	})
	return rep, sweep, nil
}
