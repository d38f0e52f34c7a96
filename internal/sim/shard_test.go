package sim

import (
	"fmt"
	"testing"
	"time"
)

// traceWorkload drives a small but varied proc mix — sleeps, a contended
// resource, park/wake pairs, timers — and records every observable step as
// "(time) name". The same workload runs on both engines; identical traces
// mean identical event order and identical clock advancement.
func traceWorkload(e *Env) []string {
	var trace []string
	note := func(now time.Duration, what string) {
		trace = append(trace, fmt.Sprintf("%v %s", now, what))
	}
	cpu := NewResource(e, 2)
	var waiter *Proc
	for i := 0; i < 4; i++ {
		i := i
		e.GoAt(time.Duration(i)*time.Microsecond, fmt.Sprintf("worker-%d", i), func(p *Proc) {
			rng := NewRNG(uint64(1992 + i))
			for step := 0; step < 20; step++ {
				cpu.Use(p, func() {
					note(p.Now(), fmt.Sprintf("%s acquired step %d", p.Name(), step))
				})
				p.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
			}
			note(p.Now(), p.Name()+" done")
		})
	}
	e.Go("parker", func(p *Proc) {
		waiter = p
		note(p.Now(), "parker parks")
		p.Park()
		note(p.Now(), "parker woken")
	})
	e.After(300*time.Microsecond, func() {
		note(e.shards[0].Now(), "timer fires")
		e.Wake(waiter)
	})
	e.Run()
	return trace
}

// TestShardedSingleShardMatchesSerial pins the golden-parity property the
// differential reproduce test relies on: a single-shard sharded engine —
// the windowed drain — produces the exact event order and clock sequence of
// the serial engine.
func TestShardedSingleShardMatchesSerial(t *testing.T) {
	serial := traceWorkload(NewEnv(&Clock{}))
	sharded := traceWorkload(NewShardedEnv(&Clock{}, 1, 0))
	if len(serial) != len(sharded) {
		t.Fatalf("trace lengths differ: serial %d, sharded %d", len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("traces diverge at step %d:\n  serial:  %s\n  sharded: %s", i, serial[i], sharded[i])
		}
	}
}

// shardedTrace runs a multi-shard workload with cross-shard sends and
// returns per-shard traces plus final shard clocks.
func shardedTrace(shards int, seed uint64) ([][]string, []time.Duration) {
	e := NewShardedEnv(&Clock{}, shards, 0)
	L := e.Lookahead()
	traces := make([][]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		sh := e.Shard(i)
		for pid := 0; pid < 3; pid++ {
			pid := pid
			rng := NewRNG(seed + uint64(i*16+pid))
			sh.Go(fmt.Sprintf("s%d-p%d", i, pid), func(p *Proc) {
				for step := 0; step < 40; step++ {
					p.Sleep(time.Duration(1+rng.Intn(120)) * time.Microsecond)
					traces[i] = append(traces[i], fmt.Sprintf("%v %s step %d", p.Now(), p.Name(), step))
					if shards > 1 && step%8 == 3 {
						dst := e.Shard((i + 1 + rng.Intn(shards-1)) % shards)
						from, at := p.Name(), p.Now()+L+time.Duration(rng.Intn(100))*time.Microsecond
						p.Shard().Send(dst, at, func() {
							traces[dst.ID()] = append(traces[dst.ID()],
								fmt.Sprintf("%v recv from %s", dst.Now(), from))
						})
					}
				}
			})
		}
	}
	if blocked := e.Run(); blocked != 0 {
		panic(fmt.Sprintf("blocked=%d", blocked))
	}
	clocks := make([]time.Duration, shards)
	for i := range clocks {
		clocks[i] = e.Shard(i).Now()
	}
	return traces, clocks
}

// TestShardedEnvDeterminism runs the same multi-shard workload twice and
// requires bit-identical per-shard traces and final clocks: window
// boundaries and the merge barrier must be pure functions of virtual time,
// never of wall-clock goroutine interleaving.
func TestShardedEnvDeterminism(t *testing.T) {
	t1, c1 := shardedTrace(4, 7)
	t2, c2 := shardedTrace(4, 7)
	for i := range t1 {
		if c1[i] != c2[i] {
			t.Fatalf("shard %d final clock differs: %v vs %v", i, c1[i], c2[i])
		}
		if len(t1[i]) != len(t2[i]) {
			t.Fatalf("shard %d trace lengths differ: %d vs %d", i, len(t1[i]), len(t2[i]))
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("shard %d diverges at step %d:\n  run1: %s\n  run2: %s", i, j, t1[i][j], t2[i][j])
			}
		}
	}
}

// TestCrossShardSendHorizon pins the conservative contract: a cross-shard
// send below the lookahead horizon must panic (it could otherwise be
// delivered inside the window that sent it), while a same-shard send at
// "now" is fine.
func TestCrossShardSendHorizon(t *testing.T) {
	e := NewShardedEnv(&Clock{}, 2, 40*time.Microsecond)
	s0, s1 := e.Shard(0), e.Shard(1)
	s0.Send(s0, 0, func() {}) // same-shard: no horizon
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cross-shard send below the horizon did not panic")
			}
		}()
		s0.Send(s1, 39*time.Microsecond, func() {})
	}()
	s0.Send(s1, 40*time.Microsecond, func() {}) // exactly the horizon: allowed
	e.Run()
	if got := s1.Now(); got != 40*time.Microsecond {
		t.Fatalf("shard 1 clock = %v, want 40µs", got)
	}
}

// TestCrossShardMergeOrder checks the merge barrier's total order: arrivals
// with equal timestamps execute in (source shard, source sequence) order,
// the sharded analogue of the serial heap's seq tie-break.
func TestCrossShardMergeOrder(t *testing.T) {
	e := NewShardedEnv(&Clock{}, 3, 10*time.Microsecond)
	dst := e.Shard(0)
	var got []string
	at := 50 * time.Microsecond
	// Schedule in deliberately scrambled source order; all land at `at`.
	e.Shard(2).Send(dst, at, func() { got = append(got, "s2#1") })
	e.Shard(1).Send(dst, at, func() { got = append(got, "s1#1") })
	e.Shard(2).Send(dst, at, func() { got = append(got, "s2#2") })
	e.Shard(1).Send(dst, at, func() { got = append(got, "s1#2") })
	// The sending shards need a pending event each so the run loop opens a
	// window; an empty shard sends nothing at run time.
	e.Shard(1).At(0, func() {})
	e.Shard(2).At(0, func() {})
	e.Run()
	want := []string{"s1#1", "s1#2", "s2#1", "s2#2"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order %v, want %v", got, want)
		}
	}
}

// TestShardedBlockedProcs checks deadlock reporting sums across shards.
func TestShardedBlockedProcs(t *testing.T) {
	e := NewShardedEnv(&Clock{}, 2, 0)
	e.Shard(0).Go("stuck-0", func(p *Proc) { p.Park() })
	e.Shard(1).Go("stuck-1", func(p *Proc) { p.Park() })
	if blocked := e.Run(); blocked != 2 {
		t.Fatalf("blocked = %d, want 2", blocked)
	}
}

// TestEventHeapShrinks pins the pop-side capacity release: after a burst
// grows the heap far past the initial capacity, draining it back down must
// shrink the backing array instead of pinning the high-water mark forever.
func TestEventHeapShrinks(t *testing.T) {
	var h eventHeap
	const burst = 8 * eventHeapInitialCap
	for i := 0; i < burst; i++ {
		h.push(event{at: time.Duration(i), seq: int64(i)})
	}
	grown := cap(h)
	if grown < burst {
		t.Fatalf("cap %d after %d pushes", grown, burst)
	}
	for i := 0; i < burst-8; i++ {
		h.pop()
	}
	if cap(h) >= grown {
		t.Fatalf("heap never shrank: cap %d (high water %d, len %d)", cap(h), grown, len(h))
	}
	// Drain the rest in order to confirm shrinking preserved the heap.
	prev := time.Duration(-1)
	for len(h) > 0 {
		ev := h.pop()
		if ev.at < prev {
			t.Fatalf("heap order broken after shrink: %v after %v", ev.at, prev)
		}
		prev = ev.at
	}
}
