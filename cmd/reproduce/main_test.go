package main

import (
	"testing"

	"epcm/internal/experiments"
	"epcm/internal/kernel"
)

// TestParseModes checks that the mode flags map onto one Modes value and
// that unknown scheduler, time-engine and policy names are rejected.
func TestParseModes(t *testing.T) {
	got, err := parseModes("concurrent", "sharded", "lru", false, false, true)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.Modes{
		Kernel:      kernel.Config{Concurrent: true, NoBatch: true, VectorCap: 1, Superpages: true},
		ShardedTime: true,
		Policy:      "lru",
	}
	if got != want {
		t.Fatalf("parseModes = %+v, want %+v", got, want)
	}
	if got, err := parseModes("serial", "serial", "", true, true, false); err != nil || got != (experiments.Modes{}) {
		t.Fatalf("default flags = %+v, %v; want the zero Modes", got, err)
	}
	for _, bad := range [][3]string{
		{"bogus", "serial", ""},
		{"serial", "warped", ""},
		{"serial", "serial", "nope"},
	} {
		if _, err := parseModes(bad[0], bad[1], bad[2], true, true, false); err == nil {
			t.Errorf("parseModes(%q, %q, %q) accepted an unknown name", bad[0], bad[1], bad[2])
		}
	}
}
