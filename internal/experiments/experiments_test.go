package experiments

import (
	"bytes"
	"testing"

	"epcm/internal/harness"
)

// tasks returns the experiment set used by the determinism tests: every
// table plus the ablation summary, with Table 4 shortened so the race-
// enabled run stays quick.
func tasks() []harness.Task[*Report] {
	return []harness.Task[*Report]{
		{Name: "table1", Run: Table1},
		{Name: "tables2-3", Run: Tables23},
		{Name: "table4", Run: func() (*Report, error) { return Table4(400, 0) }},
		{Name: "ablations", Run: Modes{}.Ablations},
	}
}

func render(t *testing.T, results []harness.Result[*Report]) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		buf.Write(r.Value.Output)
	}
	return buf.Bytes()
}

// TestHarnessOutputMatchesSequential runs the full experiment set
// sequentially and at parallelism 8 and requires byte-identical output —
// the determinism-under-parallelism guarantee cmd/reproduce relies on.
func TestHarnessOutputMatchesSequential(t *testing.T) {
	seq := render(t, harness.Run(tasks(), 1))
	par := render(t, harness.Run(tasks(), 8))
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- par=8 ---\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("experiments produced no output")
	}
}

// TestReportsCarryMeasurements checks the trajectory inputs are populated.
func TestReportsCarryMeasurements(t *testing.T) {
	for _, r := range harness.Run(tasks(), 4) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		rep := r.Value
		if rep.Table == "" || len(rep.Measures) == 0 {
			t.Fatalf("%s: table=%q measures=%d", r.Name, rep.Table, len(rep.Measures))
		}
		if rep.Events <= 0 {
			t.Fatalf("%s: no simulated events recorded", r.Name)
		}
		if !rep.OK && rep.Table != "table4" {
			// Table 4 with a shortened horizon may drift from paper values;
			// the others must pass outright.
			t.Fatalf("%s: experiment reported not OK", r.Name)
		}
	}
}

// TestTable1MatchesPaper pins the headline Table 1 reproduction.
func TestTable1MatchesPaper(t *testing.T) {
	rep, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("Table 1 no longer matches the paper:\n%s", rep.Output)
	}
}
