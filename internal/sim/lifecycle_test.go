package sim

import (
	"runtime"
	"testing"
	"time"
)

// lifecycleEnvs builds one environment per engine shape a process can run
// under: serial, single-shard sharded and multi-shard sharded.
func lifecycleEnvs() map[string]*Env {
	return map[string]*Env{
		"serial":    NewEnv(&Clock{}),
		"sharded-1": NewShardedEnv(&Clock{}, 1, 0),
		"sharded-3": NewShardedEnv(&Clock{}, 3, 0),
	}
}

// A process costs no goroutine until its first dispatch: scheduling many
// past a RunUntil deadline must leave the goroutine count where it was, and
// none of their bodies may run. Running on past the start time then starts
// and finishes every one of them, which also returns their goroutines.
func TestProcStartsAtFirstDispatch(t *testing.T) {
	for name, e := range lifecycleEnvs() {
		t.Run(name, func(t *testing.T) {
			const procs = 64
			before := runtime.NumGoroutine()
			perShard := make([]int, e.NumShards()) // shards drain concurrently
			ran := func() (n int) {
				for _, r := range perShard {
					n += r
				}
				return n
			}
			for i := 0; i < procs; i++ {
				e.Shard(i%e.NumShards()).GoAt(10*time.Second, "late", func(p *Proc) {
					perShard[p.Shard().ID()]++
					p.Sleep(time.Millisecond)
				})
			}
			if blocked := e.RunUntil(5 * time.Second); blocked != 0 {
				t.Fatalf("blocked = %d", blocked)
			}
			if n := ran(); n != 0 {
				t.Fatalf("%d bodies ran before their start time", n)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines grew from %d to %d with no process dispatched", before, after)
			}
			if blocked := e.Run(); blocked != 0 {
				t.Fatalf("blocked = %d", blocked)
			}
			if n := ran(); n != procs {
				t.Fatalf("ran = %d, want %d", n, procs)
			}
		})
	}
}

// Name is set when the process is scheduled and stays the same once its
// body runs.
func TestProcNameBeforeAndAfterStart(t *testing.T) {
	for name, e := range lifecycleEnvs() {
		t.Run(name, func(t *testing.T) {
			var inside string
			p := e.GoAt(time.Second, "txn-7", func(p *Proc) { inside = p.Name() })
			if p.Name() != "txn-7" {
				t.Fatalf("Name before start = %q", p.Name())
			}
			e.Run()
			if inside != "txn-7" || p.Name() != "txn-7" {
				t.Fatalf("Name inside body = %q, after run = %q, want txn-7", inside, p.Name())
			}
		})
	}
}
