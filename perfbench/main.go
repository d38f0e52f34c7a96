// Command perfbench is the repository's benchmark: host speed of the
// simulator on three workloads, each checked against the simulated results
// it must not change. See README.md for why each workload exists, which
// layers it loads and bypasses, and what every metric means.
//
//	perfbench --workload paper|fill|thrash|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run, measured next to an untraced run of the same inputs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"epcm/internal/kernel"
)

// config sizes one run. The defaults are the benchmark's; tests shrink
// them.
type config struct {
	seed    uint64
	seconds float64 // measured window of one phase
	// fillPages is how many pages each fill driver first-touches per round.
	fillPages int
	// thrashPages is the thrash footprint, thrashRefs the length of its
	// reference string; the frame pool holds a quarter of the footprint.
	thrashPages int64
	thrashRefs  int
	goldenPath  string
	// paperColdStarts is how many cold paper passes, each in a fresh
	// process, make up paper's set-up samples.
	paperColdStarts int
	spanDir         string // where the traced run writes its spans; "" skips
}

func defaultConfig() config {
	return config{
		fillPages:       131072,
		thrashPages:     32768, // the paper machine: 128 MB of 4 KB pages
		thrashRefs:      400000,
		goldenPath:      filepath.Join("internal", "experiments", "testdata", "reproduce.golden"),
		paperColdStarts: 8,
		spanDir:         ".bench_build",
	}
}

// phase is what one run of a workload measured. A workload returns the
// same phase shape traced or untraced, so the two can be compared.
type phase struct {
	attempted, failed int64
	faults            int64 // kernel faults over all episodes
	checkFailures     []string
	episodes          int

	setupS  []float64 // one sample per set-up
	opsPerS []float64 // one throughput sample per episode window
	// p50us and p99us summarise the latency samples of each episode (of
	// each driver), so the samples need not be kept: the live heap the
	// benchmark reports then does not grow with the run's length.
	p50us, p99us []float64
	samples      int
	// liveHeapMB and heapPerPage sample the live heap after GC at the end
	// of each episode window, with the episode's machine still alive.
	liveHeapMB, heapPerPage []float64

	// sim holds the simulated results; they are deterministic for a seed
	// and must be identical traced and untraced.
	sim map[string]float64
	// layer holds the per-layer values this phase measured directly;
	// setupParts holds per-set-up samples of the timed set-up steps.
	layer      map[string]float64
	setupParts map[string][]float64
	// report holds the workload's own end-to-end figures for the human
	// summary, by the names README.md gives them.
	report []line

	rt        runtimeDelta
	windowOps int64   // ops attempted inside the measured windows
	windowS   float64 // summed driver window time
	tracers   []*tracer
}

type line struct {
	name, unit string
	value      float64
}

func newPhase() *phase {
	return &phase{sim: map[string]float64{}, layer: map[string]float64{}, setupParts: map[string][]float64{}}
}

func (p *phase) addLatencies(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	p.p50us = append(p.p50us, durPercentileUS(ds, 50))
	p.p99us = append(p.p99us, durPercentileUS(ds, 99))
	p.samples += len(ds)
}

func (p *phase) fail(check string, err error) {
	p.checkFailures = append(p.checkFailures, fmt.Sprintf("%s: %v", check, err))
}

// metric is one entry of the result's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config, *tracer) (*phase, error){
	"paper":  runPaper,
	"fill":   runFill,
	"thrash": runThrash,
}

func main() {
	if golden := os.Getenv(coldPassEnv); golden != "" {
		os.Exit(coldPassMain(golden))
	}
	wl := flag.String("workload", "", "paper, fill, thrash, or all (human summary only)")
	seed := flag.Uint64("seed", 1, "input seed (paper always uses the golden seed)")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced layer-by-layer run")
	flag.Parse()
	cfg := defaultConfig()
	cfg.seed = *seed
	cfg.seconds = *seconds
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat(cfg.goldenPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		os.Exit(1)
	}
	printStamp()
	if *wl == "all" {
		for _, name := range []string{"paper", "fill", "thrash"} {
			res, err := run(name, cfg, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			out, _ := json.Marshal(res)
			fmt.Printf("%s: %s\n", name, out)
		}
		return
	}
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	res, err := run(*wl, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload. Untraced, it reports the end-to-end metrics.
// Traced, it runs the workload twice on identical inputs, untraced and then
// traced, each for half the configured seconds; it checks that both phases
// produced the same simulated results and reports the per-layer metrics.
func run(name string, cfg config, traced bool) (*result, error) {
	fn := workloads[name]
	if traced {
		cfg.seconds /= 2
	}
	base, err := fn(cfg, nil)
	if err != nil {
		return nil, err
	}
	printReport(name, "untraced", base)
	if !traced {
		return endToEnd(base), nil
	}
	tr := newTracer()
	tp, err := fn(cfg, tr)
	if err != nil {
		return nil, err
	}
	printReport(name, "traced", tp)
	res := perLayer(base, tp)
	// Both phases ran at least one episode; compare every simulated result
	// both recorded.
	for _, k := range sortedKeys(base.sim) {
		if x, ok := tp.sim[k]; ok && base.sim[k] != x {
			res.Correct = false
			fmt.Printf("CHECK FAILED trace.sim_equal: %s untraced %v traced %v\n", k, base.sim[k], x)
		}
	}
	if cfg.spanDir != "" {
		if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.tsv", name, cfg.seed))
		if err := writeSpans(path, tp.tracers...); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return res, nil
}

func verdict(p *phase) (correct bool) {
	for _, f := range p.checkFailures {
		fmt.Printf("CHECK FAILED %s\n", f)
	}
	return len(p.checkFailures) == 0 && p.attempted > 0
}

// endToEnd builds the untraced result. Every workload reports every
// end-to-end metric; README.md gives each its per-workload meaning.
func endToEnd(p *phase) *result {
	return &result{
		Correct:   verdict(p),
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":   {median(p.setupS), "s"},
			"ops_per_s": {median(p.opsPerS), "1/s"},
		},
	}
}

// layerUnits lists every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"kernel.self_ns_per_access", "ns"},
	{"kernel.tlb_hit_ratio", "ratio"},
	{"kernel.hash_spills", "count/episode"},
	{"kernel.hash_drops", "count/episode"},
	{"kernel.access_p50_us", "us"},
	{"kernel.access_p99_us", "us"},
	{"kernel.migrate_calls_per_fault", "calls/fault"},
	{"kernel.modify_calls_per_fault", "calls/fault"},
	{"kernel.getattr_calls_per_fault", "calls/fault"},
	{"plane.vectored_batches", "count/episode"},
	{"plane.faults_per_batch", "faults/batch"},
	{"manager.reclaims_per_fault", "pages/fault"},
	{"manager.policy.victim_ns", "ns/call"},
	{"manager.policy.victim_calls", "calls/fault"},
	{"manager.policy.hook_ns", "ns/call"},
	{"storage.fetch_ns", "ns/call"},
	{"storage.store_ns", "ns/call"},
	{"storage.fetches_per_fault", "calls/fault"},
	{"storage.stores_per_fault", "calls/fault"},
	{"spcm.request_ns", "ns/call"},
	{"spcm.requests", "count/episode"},
	{"spcm.frames_per_request", "frames/call"},
	{"spcm.refused", "count/episode"},
	{"setup.kernel_new_s", "s"},
	{"setup.spcm_new_s", "s"},
	{"setup.refgen_s", "s"},
	{"experiments.table1_s", "s"},
	{"experiments.tables23_s", "s"},
	{"experiments.table4_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_cycles", "count/episode"},
	{"runtime.live_heap_mb", "MB"},
	{"runtime.heap_bytes_per_page", "B/page"},
	{"model.hit_rate", "ratio"},
	{"model.us_per_op", "us"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer builds the traced result. Span-derived metrics come from the
// traced phase; sampled and runtime metrics come from the untraced phase,
// which the spans do not perturb. A layer a workload bypasses reads 0.
func perLayer(base, tp *phase) *result {
	s := summarize(tp.tracers...)
	v := map[string]float64{}
	for k, x := range tp.layer {
		v[k] = x
	}
	for k, xs := range tp.setupParts {
		v[k] = median(xs)
	}
	v["kernel.self_ns_per_access"] = ratio(float64(s.selfNs[spanAccess]), float64(s.count[spanAccess]))
	v["kernel.access_p50_us"] = median(base.p50us)
	v["kernel.access_p99_us"] = median(base.p99us)
	v["manager.policy.victim_ns"] = s.meanNs(spanVictim)
	v["manager.policy.victim_calls"] = ratio(float64(s.count[spanVictim]), float64(tp.faults))
	v["manager.policy.hook_ns"] = s.meanNs(spanInsert, spanTouch, spanRemove)
	v["storage.fetch_ns"] = s.meanNs(spanFetch)
	v["storage.store_ns"] = s.meanNs(spanStore)
	// Only fill draws from the SPCM; thrash's grant spans time its fixed
	// pool, which is not the spcm layer.
	if _, ok := v["spcm.requests"]; ok {
		v["spcm.request_ns"] = s.meanNs(spanRequest)
	}
	v["experiments.table1_s"] = s.meanNs(spanTable1) / 1e9
	v["experiments.tables23_s"] = s.meanNs(spanTables23) / 1e9
	v["experiments.table4_s"] = s.meanNs(spanTable4) / 1e9
	v["runtime.gc_cpu_frac"] = ratio(base.rt.gcCPU, base.rt.totalCPU)
	v["runtime.allocs_per_op"] = ratio(base.rt.allocs, float64(base.windowOps))
	v["runtime.gc_cycles"] = ratio(base.rt.gcCycles, float64(base.episodes))
	v["runtime.live_heap_mb"] = median(base.liveHeapMB)
	v["runtime.heap_bytes_per_page"] = median(base.heapPerPage)
	if tp.windowS > 0 {
		v["trace.unattributed_frac"] = 1 - float64(s.topNs)/1e9/tp.windowS
	}
	if b := median(base.opsPerS); b > 0 {
		v["trace.overhead_frac"] = 1 - median(tp.opsPerS)/b
	}
	res := &result{
		Correct:   verdict(base) && verdict(tp),
		Attempted: base.attempted + tp.attempted,
		Failed:    base.failed + tp.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerUnits {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	return res
}

func printReport(name, mode string, p *phase) {
	fmt.Printf("%s (%s): %d episodes, %d ops attempted, %d failed, %d latency samples\n",
		name, mode, p.episodes, p.attempted, p.failed, p.samples)
	for _, l := range p.report {
		fmt.Printf("  %-22s %14.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Printf("  %-22s %14.6g s (median of %d)\n", "setup_s", median(p.setupS), len(p.setupS))
}

// printStamp prints the host stamp every result is read against.
func printStamp() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	stamp := map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"gogc":          gogc,
	}
	out, _ := json.Marshal(map[string]any{"host": stamp})
	fmt.Println(string(out))
}

// sourceDigest hashes the Go sources and module files under root, so a
// result can be tied to the code it measured where no commit id is
// available.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod") || strings.HasSuffix(path, ".golden")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runtimeDelta accumulates Go runtime counters over measured windows.
type runtimeDelta struct {
	gcCPU, totalCPU, allocs, gcCycles float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

type rtSnap [4]float64

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s rtSnap
	for i, smp := range samples {
		switch smp.Value.Kind() {
		case metrics.KindFloat64:
			s[i] = smp.Value.Float64()
		case metrics.KindUint64:
			s[i] = float64(smp.Value.Uint64())
		}
	}
	return s
}

func (d *runtimeDelta) add(before, after rtSnap) {
	d.gcCPU += after[0] - before[0]
	d.totalCPU += after[1] - before[1]
	d.allocs += after[2] - before[2]
	d.gcCycles += after[3] - before[3]
}

// liveHeapMB collects garbage and reports the live heap: what the
// simulated machine and the program's own state hold at this point.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// durPercentileUS returns the p-th percentile of ds in microseconds
// (nearest rank). It sorts ds in place.
func durPercentileUS(ds []time.Duration, p int) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := (len(ds)*p + 99) / 100
	if i > 0 {
		i--
	}
	return float64(ds[i].Nanoseconds()) / 1000
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// kernelDelta sums kernel.Stats differences over episodes.
type kernelDelta struct{ kernel.Stats }

func (d *kernelDelta) add(a, b kernel.Stats) {
	d.Accesses += b.Accesses - a.Accesses
	d.Faults += b.Faults - a.Faults
	d.MigrateCalls += b.MigrateCalls - a.MigrateCalls
	d.ModifyCalls += b.ModifyCalls - a.ModifyCalls
	d.GetAttrCalls += b.GetAttrCalls - a.GetAttrCalls
	d.TLBHits += b.TLBHits - a.TLBHits
	d.TLBMisses += b.TLBMisses - a.TLBMisses
	d.HashSpills += b.HashSpills - a.HashSpills
	d.HashDrops += b.HashDrops - a.HashDrops
	d.VectoredBatches += b.VectoredBatches - a.VectoredBatches
	d.VectoredFaults += b.VectoredFaults - a.VectoredFaults
}

// record stores the kernel and plane per-layer metrics of n episodes.
func (d *kernelDelta) record(p *phase, n int) {
	eps := float64(n)
	f := float64(d.Faults)
	p.layer["kernel.tlb_hit_ratio"] = ratio(float64(d.TLBHits), float64(d.TLBHits+d.TLBMisses))
	p.layer["kernel.hash_spills"] = float64(d.HashSpills) / eps
	p.layer["kernel.hash_drops"] = float64(d.HashDrops) / eps
	p.layer["kernel.migrate_calls_per_fault"] = ratio(float64(d.MigrateCalls), f)
	p.layer["kernel.modify_calls_per_fault"] = ratio(float64(d.ModifyCalls), f)
	p.layer["kernel.getattr_calls_per_fault"] = ratio(float64(d.GetAttrCalls), f)
	p.layer["plane.vectored_batches"] = float64(d.VectoredBatches) / eps
	p.layer["plane.faults_per_batch"] = ratio(float64(d.VectoredFaults), float64(d.VectoredBatches))
}
