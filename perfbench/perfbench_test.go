package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
)

// TestMain lets the paper workload start this test binary for its cold
// passes, as it starts the benchmark binary.
func TestMain(m *testing.M) {
	if golden := os.Getenv(coldPassEnv); golden != "" {
		os.Exit(coldPassMain(golden))
	}
	os.Exit(m.Run())
}

// tinyConfig shrinks every workload so a test run takes about a second.
// The thrash footprint stays above the 4096-page dense bound of the
// manager's resident index, as in the full-size workload.
func tinyConfig() config {
	cfg := defaultConfig()
	cfg.seed = 7
	cfg.seconds = 0.05
	cfg.fillPages = 2048
	cfg.thrashPages = 8192
	cfg.thrashRefs = 20000
	cfg.paperColdStarts = 1
	cfg.goldenPath = filepath.Join("..", cfg.goldenPath)
	cfg.spanDir = ""
	return cfg
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"paper", "fill", "thrash"} {
		for _, traced := range []bool{false, true} {
			res, err := run(name, tinyConfig(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: a check failed", name, traced)
			}
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: no ops attempted", name, traced)
			}
			want := len(layerUnits)
			if !traced {
				want = 2
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
			if !traced {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
			if name == "fill" && res.Failed != 0 {
				t.Errorf("fill: %d failed ops, want 0", res.Failed)
			}
		}
	}
}

// TestThrashDeterministic pins that the simulated results of a replay
// depend on the seed alone, and a run's op counts on the seed and the
// seconds: two runs agree exactly.
func TestThrashDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := runThrash(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runThrash(cfg, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"model.hit_rate", "model.us_per_op"} {
		if a.layer[k] != b.layer[k] {
			t.Errorf("%s: %v then %v", k, a.layer[k], b.layer[k])
		}
	}
	for k, v := range a.sim {
		if w, ok := b.sim[k]; ok && v != w {
			t.Errorf("%s: %v then %v", k, v, w)
		}
	}
	// A run's size is fixed by --seconds, not by the clock, so the op
	// counts repeat too.
	if a.attempted != b.attempted || a.failed != b.failed {
		t.Errorf("attempted/failed %d/%d then %d/%d", a.attempted, a.failed, b.attempted, b.failed)
	}
	if a.sim["replay0.faults"] == 0 {
		t.Fatal("no faults recorded for the first replay")
	}
	cfg.seed++
	c, err := runThrash(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.sim["replay0.faults"] == a.sim["replay0.faults"] && c.layer["model.us_per_op"] == a.layer["model.us_per_op"] {
		t.Error("a different seed replayed the same reference string")
	}
}

// Fakes covering the optional-interface combinations no system type has.
type (
	plainSource  struct{}
	ioSource     struct{ plainSource }
	contigSource struct{ plainSource }
	contigIO     struct{ contigSource }
	runsSource   struct{ contigSource }
	plainPolicy  struct{ manager.Policy }
)

func (plainSource) RequestFrames(*manager.Generic, int, phys.Range) (int, error) { return 0, nil }
func (plainSource) ReturnFrames(*manager.Generic, []int64) error                 { return nil }
func (ioSource) ChargeIO(*manager.Generic, int64)                                {}
func (contigSource) RequestContiguous(*manager.Generic, int) (int, error)        { return 0, nil }
func (contigIO) ChargeIO(*manager.Generic, int64)                                {}
func (runsSource) RequestContiguousRuns(*manager.Generic, int, int) (int, error) { return 0, nil }

// optionalSource reports which optional FrameSource extensions src has.
func optionalSource(src manager.FrameSource) [3]bool {
	_, io := src.(manager.IOAccountant)
	_, contig := src.(manager.ContiguousSource)
	_, runs := src.(manager.ContiguousRunSource)
	return [3]bool{io, contig, runs}
}

func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: 1 << 20})
	k := kernel.New(mem, new(sim.Clock), sim.DECstation5000(), kernel.Config{})
	pool, err := manager.NewFixedPool(k, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]manager.FrameSource{
		"spcm":      spcm.New(k, spcm.DefaultPolicy()),
		"fixedpool": pool,
		"io":        ioSource{},
		"contig":    contigSource{},
		"contig+io": contigIO{},
		"runs":      runsSource{},
	}
	seen := map[[3]bool]bool{}
	for name, src := range sources {
		want := optionalSource(src)
		seen[want] = true
		if got := optionalSource(traceSource(src, newTracer(), new(sourceCounts))); got != want {
			t.Errorf("%s: traced source has extensions %v, want %v", name, got, want)
		}
	}
	// The five shapes above plus the SPCM's full set: every combination
	// traceSource distinguishes is exercised.
	if len(seen) != 6 {
		t.Errorf("covered %d extension combinations, want 6", len(seen))
	}

	clock, err := manager.NewPolicy("clock")
	if err != nil {
		t.Fatal(err)
	}
	for name, pol := range map[string]manager.Policy{"clock": clock, "plain": plainPolicy{clock}} {
		_, want := pol.(manager.ExtentPolicy)
		_, got := tracePolicy(pol, newTracer()).(manager.ExtentPolicy)
		if got != want {
			t.Errorf("%s: traced policy ExtentPolicy = %v, want %v", name, got, want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin(spanAccess)
	time.Sleep(2 * time.Millisecond)
	inner := tr.begin(spanFetch)
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	s := summarize(tr)
	if s.count[spanAccess] != 1 || s.count[spanFetch] != 1 {
		t.Fatalf("counts %v", s.count)
	}
	if got, want := s.selfNs[spanAccess], s.totalNs[spanAccess]-s.totalNs[spanFetch]; got != want {
		t.Errorf("access self %d ns, want span minus child %d ns", got, want)
	}
	if s.topNs != s.totalNs[spanAccess] {
		t.Errorf("top-level coverage %d ns, want %d", s.topNs, s.totalNs[spanAccess])
	}
	if tr.kept[1].parent != 0 || tr.kept[0].parent != -1 {
		t.Errorf("parents %d, %d; want -1, 0", tr.kept[0].parent, tr.kept[1].parent)
	}
}
