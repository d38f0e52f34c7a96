package experiments

import (
	"strings"
	"testing"
)

// The superpage arm must build the same working set as the base arm with
// far fewer faults: one fault per extent fills 2^order pages through a
// contiguous grant and installs a single translation entry, so hit
// fidelity stays 1.0 while TLB reach approaches the extent size. The base
// arm is the existing one-fault-per-page path and must be untouched.
func TestPlaneThroughputSuperpageArm(t *testing.T) {
	const fpm = 1024 // multiple of the extent size, so no partial tail
	for _, sched := range []string{"serial", "concurrent"} {
		base, err := PlaneThroughput(PlaneOptions{Scheduler: sched, Managers: 2, FaultsPerManager: fpm})
		if err != nil {
			t.Fatalf("%s base: %v", sched, err)
		}
		super, err := PlaneThroughput(PlaneOptions{Scheduler: sched, Managers: 2, FaultsPerManager: fpm, ExtentOrder: superExtentOrder})
		if err != nil {
			t.Fatalf("%s super: %v", sched, err)
		}
		if base.Faults != 2*fpm {
			t.Errorf("%s base arm: got %d faults, want %d", sched, base.Faults, 2*fpm)
		}
		span := int64(1) << superExtentOrder
		if want := 2 * fpm / span; super.Faults != want {
			t.Errorf("%s super arm: got %d faults, want %d (one per %d-page extent)", sched, super.Faults, want, span)
		}
		if super.HitFidelity != 1 || base.HitFidelity != 1 {
			t.Errorf("%s: hit fidelity base %.3f super %.3f, want 1.0", sched, base.HitFidelity, super.HitFidelity)
		}
		if super.TLBReachPages != float64(span) {
			t.Errorf("%s super arm: TLB reach %.2f pages/entry, want %d (every extent live)", sched, super.TLBReachPages, span)
		}
		if base.TLBReachPages != 1 {
			t.Errorf("%s base arm: TLB reach %.2f pages/entry, want 1", sched, base.TLBReachPages)
		}
		// Two promotions per extent: the SPCM grant into the manager's
		// free segment is itself an aligned extent move (transient, demoted
		// when the pages migrate out to the application segment), then the
		// fill into the application segment promotes the live extent.
		if want := 2 * (2 * fpm / span); super.ExtentPromotions != want {
			t.Errorf("%s super arm: %d promotions, want %d", sched, super.ExtentPromotions, want)
		}
	}
}

// A tiny SuperpageSweep end to end: the rendered table must carry both
// arms and the sweep must record a run per cell with the extent order
// distinguishing them. The ≥2x/monotonic gates are exercised at full size
// by cmd/reproduce -supersweep, not at smoke sizes.
func TestSuperpageSweepSmoke(t *testing.T) {
	rep, sweep, err := SuperpageSweep(256, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2 (base and super arms)", len(sweep.Runs))
	}
	if sweep.Runs[0].ExtentOrder != 0 || sweep.Runs[1].ExtentOrder != superExtentOrder {
		t.Errorf("arm order: got extent orders %d,%d, want 0,%d",
			sweep.Runs[0].ExtentOrder, sweep.Runs[1].ExtentOrder, superExtentOrder)
	}
	out := string(rep.Output)
	for _, want := range []string{"base", "super", "Wall pages/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}
