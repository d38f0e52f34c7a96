package experiments

import (
	"bytes"
	"os"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/manager"
)

// TestGoldenModes locks the reproduce output byte-for-byte against
// testdata/reproduce.golden at every point of the mode lattice the paper
// tables must be invariant under. Each arm boots its own machines from its
// own Modes, so the arms run side by side; under -race this is also the
// check that kernels built with different configs share no mode state.
//
//   - default: the reference run. The fault plane is compiled in but
//     disarmed, so any extra clock charge, reordered grant or RNG draw from
//     its hook seams shows up here.
//   - concurrent: the concurrent delivery scheduler; all costs are virtual
//     time, so the scheduler must not move a byte.
//   - nobatch: the per-page legacy path of the batched entry points.
//   - sharded-time: Table 4 on a single-shard sharded engine, which drains
//     the same event heap in the same (at, seq) order through the windowed
//     machinery.
//   - superpages: the extent plane on, with no manager asking for extents.
//   - vectorcap-1: vectored delivery off.
//   - clock: the clock policy named explicitly through the registry; it must
//     be charge-for-charge identical to the built-in default.
//
// Regenerate (only after an intentional model change):
//
//	go run ./cmd/reproduce > internal/experiments/testdata/reproduce.golden
func TestGoldenModes(t *testing.T) {
	want, err := os.ReadFile("testdata/reproduce.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		modes Modes
	}{
		{"default", Modes{}},
		{"concurrent", Modes{Kernel: kernel.Config{Concurrent: true}}},
		{"nobatch", Modes{Kernel: kernel.Config{NoBatch: true}}},
		{"sharded-time", Modes{ShardedTime: true}},
		{"superpages", Modes{Kernel: kernel.Config{Superpages: true}}},
		{"vectorcap-1", Modes{Kernel: kernel.Config{VectorCap: 1}}},
		{"clock", Modes{Policy: "clock"}},
	} {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			m := arm.modes
			var got bytes.Buffer
			for _, run := range []func() (*Report, error){
				m.Table1,
				m.Tables23,
				func() (*Report, error) { return m.Table4(0, 0) },
			} {
				rep, err := run()
				if err != nil {
					t.Fatal(err)
				}
				got.Write(rep.Output)
			}
			if !bytes.Equal(got.Bytes(), want) {
				i := 0
				for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
					i++
				}
				t.Fatalf("output diverged from golden at byte %d (got %d bytes, want %d)\n--- got around divergence ---\n%s",
					i, got.Len(), len(want), context(got.Bytes(), i))
			}
		})
	}
}

// TestTable1PolicyInvariance checks that Table 1 — whose fault measurements
// never trigger a reclaim — is identical under every registered policy:
// the policy plane must be off the minimal-fault path entirely.
func TestTable1PolicyInvariance(t *testing.T) {
	var base []byte
	for _, name := range manager.PolicyNames() {
		rep, err := Modes{Policy: name}.Table1()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base == nil {
			base = rep.Output
			continue
		}
		if !bytes.Equal(rep.Output, base) {
			t.Fatalf("Table 1 output differs under policy %s:\n%s", name, rep.Output)
		}
	}
}

// context returns the line region around byte offset i for the failure
// message.
func context(b []byte, i int) []byte {
	lo, hi := i, i
	for lo > 0 && b[lo-1] != '\n' {
		lo--
	}
	for hi < len(b) && b[hi] != '\n' {
		hi++
	}
	return b[lo:hi]
}
