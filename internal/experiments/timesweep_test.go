package experiments

import (
	"bytes"
	"testing"
)

// TestTimeSweepSmoke runs a miniature sweep end to end: determinism across
// repetitions is asserted inside timeCell, and the model-throughput scaling
// gate must hold even at smoke size.
func TestTimeSweepSmoke(t *testing.T) {
	rep, sweep, err := TimeSweep(16384, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("time sweep gate failed:\n%s", rep.Output)
	}
	if sweep.ModelScaling1To4 < 1.5 {
		t.Fatalf("model scaling 1->4 = %.2fx, want >= 1.5x", sweep.ModelScaling1To4)
	}
	if len(sweep.Cells) != 4 { // serial baseline + 3 sharded cells
		t.Fatalf("cells = %d, want 4", len(sweep.Cells))
	}
	for _, c := range sweep.Cells {
		if c.Events <= 0 || c.MakespanMS <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
		if c.Engine == "sharded" && c.Shards > 1 && c.CrossSends == 0 {
			t.Fatalf("sharded cell %d shards exercised no cross-shard sends", c.Shards)
		}
	}
}

// TestAppendAndDiffTimeSweeps checks the BENCH_time.json trajectory file
// round-trips: append twice, then diff the last two sweeps.
func TestAppendAndDiffTimeSweeps(t *testing.T) {
	path := t.TempDir() + "/BENCH_time.json"
	for i := 0; i < 2; i++ {
		sweep := &TimeSweepResult{
			GeneratedAt: "2026-01-01T00:00:00Z",
			Cells: []TimeCell{{
				Engine: "sharded", Shards: 4, Events: 1000,
				MakespanMS: 10, ModelEventsPerSec: float64(100000 * (i + 1)),
			}},
		}
		if err := AppendTimeSweep(path, sweep); err != nil {
			t.Fatal(err)
		}
	}
	out, err := DiffTimeSweeps(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(out), []byte("sharded")) {
		t.Fatalf("diff output missing cells:\n%s", out)
	}
}
