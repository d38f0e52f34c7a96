package db

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"epcm/internal/sim"
)

func newLockEnv() (*sim.Env, *LockManager) {
	var c sim.Clock
	env := sim.NewEnv(&c)
	return env, NewLockManager(env)
}

// The standard compatibility matrix must be symmetric and have the
// defining properties: IS compatible with everything but X; X compatible
// with nothing.
func TestCompatibilityMatrix(t *testing.T) {
	modes := []Mode{IS, IX, S, X}
	for _, a := range modes {
		for _, b := range modes {
			if Compatible(a, b) != Compatible(b, a) {
				t.Fatalf("matrix asymmetric at %v,%v", a, b)
			}
			if a == X || b == X {
				if Compatible(a, b) {
					t.Fatalf("X compatible with %v", b)
				}
			}
		}
	}
	if !Compatible(IS, S) || !Compatible(IS, IX) || !Compatible(IX, IX) || !Compatible(S, S) {
		t.Fatal("expected compatibilities missing")
	}
	if Compatible(IX, S) {
		t.Fatal("IX and S must conflict")
	}
}

func TestSharedHoldersOverlapAndWriterWaits(t *testing.T) {
	env, m := newLockEnv()
	var events []string
	reader := func(name string) func(*sim.Proc) {
		return func(p *sim.Proc) {
			m.Acquire(p, name, "r", S)
			events = append(events, name+"+")
			p.Sleep(10 * time.Millisecond)
			events = append(events, name+"-")
			m.ReleaseAll(name)
		}
	}
	env.Go("r1", reader("r1"))
	env.Go("r2", reader("r2"))
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Acquire(p, "w", "r", X)
		events = append(events, "w+")
		m.ReleaseAll("w")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	// Both readers held concurrently; the writer ran only after both.
	want := []string{"r1+", "r2+", "r1-", "r2-", "w+"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// FIFO (no barging): a reader arriving behind a queued writer waits, so
// writers are not starved.
func TestNoBargingBlocksLateReaders(t *testing.T) {
	env, m := newLockEnv()
	var order []string
	env.Go("r1", func(p *sim.Proc) {
		m.Acquire(p, "r1", "l", S)
		p.Sleep(10 * time.Millisecond)
		m.ReleaseAll("r1")
	})
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Acquire(p, "w", "l", X)
		order = append(order, "w")
		p.Sleep(time.Millisecond)
		m.ReleaseAll("w")
	})
	env.Go("r2", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // arrives while w queued
		m.Acquire(p, "r2", "l", S)
		order = append(order, "r2")
		m.ReleaseAll("r2")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if order[0] != "w" || order[1] != "r2" {
		t.Fatalf("order = %v, want writer first", order)
	}
}

// With barging, the late reader joins the running reader immediately.
func TestBargingLetsReadersShare(t *testing.T) {
	env, m := newLockEnv()
	m.Barging = true
	var r2At time.Duration
	env.Go("r1", func(p *sim.Proc) {
		m.Acquire(p, "r1", "l", S)
		p.Sleep(10 * time.Millisecond)
		m.ReleaseAll("r1")
	})
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Acquire(p, "w", "l", X)
		m.ReleaseAll("w")
	})
	env.Go("r2", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		m.Acquire(p, "r2", "l", S)
		r2At = p.Now()
		p.Sleep(5 * time.Millisecond)
		m.ReleaseAll("r2")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if r2At != 2*time.Millisecond {
		t.Fatalf("barging reader waited until %v", r2At)
	}
}

func TestReleaseSingleLock(t *testing.T) {
	env, m := newLockEnv()
	env.Go("a", func(p *sim.Proc) {
		m.Acquire(p, "a", "l1", X)
		m.Acquire(p, "a", "l2", X)
		m.Release("a", "l1")
		if m.Holders("l1") != 0 {
			t.Error("l1 still held")
		}
		if m.Holders("l2") != 1 {
			t.Error("l2 dropped")
		}
		m.ReleaseAll("a")
	})
	env.Run()
	if m.Holders("l2") != 0 {
		t.Fatal("ReleaseAll missed l2")
	}
}

func TestIntentionLocksDoNotBlockEachOther(t *testing.T) {
	env, m := newLockEnv()
	concurrent := 0
	max := 0
	for i := 0; i < 10; i++ {
		name := i
		env.Go("dc", func(p *sim.Proc) {
			m.Acquire(p, name, "rel", IX)
			concurrent++
			if concurrent > max {
				max = concurrent
			}
			p.Sleep(time.Millisecond)
			concurrent--
			m.ReleaseAll(name)
		})
	}
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if max != 10 {
		t.Fatalf("max concurrent IX holders = %d, want 10", max)
	}
	if m.Stats().Waits != 0 {
		t.Fatalf("IX holders waited %d times", m.Stats().Waits)
	}
}

// Property: after any sequence of acquire/release by sequential owners,
// every pair of simultaneously granted holds (different owners) is
// compatible. We exercise it through the simulation with random workloads.
func TestNoIncompatibleGrantsProperty(t *testing.T) {
	f := func(seed uint16, barging bool) bool {
		var c sim.Clock
		env := sim.NewEnv(&c)
		m := NewLockManager(env)
		m.Barging = barging
		rng := sim.NewRNG(uint64(seed) + 1)
		violation := false
		check := func() {
			for _, l := range m.locks {
				for i := 0; i < len(l.granted); i++ {
					for j := i + 1; j < len(l.granted); j++ {
						a, b := l.granted[i], l.granted[j]
						if a.owner != b.owner && !Compatible(a.mode, b.mode) {
							violation = true
						}
					}
				}
			}
		}
		for i := 0; i < 30; i++ {
			owner := i
			mode := Mode(rng.Intn(4))
			lockName := []string{"l1", "l2"}[rng.Intn(2)]
			hold := time.Duration(rng.Intn(5)+1) * time.Millisecond
			env.GoAt(time.Duration(rng.Intn(50))*time.Millisecond, "p", func(p *sim.Proc) {
				m.Acquire(p, owner, lockName, mode)
				check()
				p.Sleep(hold)
				check()
				m.ReleaseAll(owner)
			})
		}
		if blocked := env.Run(); blocked != 0 {
			return false
		}
		return !violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A hold granted to a waiter inside grantWaiters belongs to that waiter:
// its own ReleaseAll must drop it (and the hold it was granted directly)
// and leave nothing behind, under FIFO and barging grants alike.
func TestWaiterGrantDroppedByOwnReleaseAll(t *testing.T) {
	for _, barging := range []bool{false, true} {
		env, m := newLockEnv()
		m.Barging = barging
		env.Go("a", func(p *sim.Proc) {
			m.Acquire(p, "a", "l", X)
			p.Sleep(time.Millisecond)
			m.ReleaseAll("a")
		})
		env.Go("b", func(p *sim.Proc) {
			m.Acquire(p, "b", "free", X) // granted on the spot
			m.Acquire(p, "b", "l", X)    // granted by a's release
			if m.Holders("l") != 1 {
				t.Errorf("barging=%v: l has %d holders after the wait", barging, m.Holders("l"))
			}
			m.ReleaseAll("b")
		})
		if blocked := env.Run(); blocked != 0 {
			t.Fatalf("barging=%v: blocked = %d", barging, blocked)
		}
		for _, name := range []string{"l", "free"} {
			if h, q := m.Holders(name), m.QueueLen(name); h != 0 || q != 0 {
				t.Fatalf("barging=%v: %s left with %d holders, %d waiters", barging, name, h, q)
			}
		}
		if len(m.held) != 0 {
			t.Fatalf("barging=%v: %d owners still listed as holding locks", barging, len(m.held))
		}
		if s := m.Stats(); s.Released != 3 || s.Waits != 1 {
			t.Fatalf("barging=%v: stats = %+v, want 3 released, 1 wait", barging, s)
		}
	}
}

// Release of one lock followed by ReleaseAll counts every hold exactly
// once: the single release takes the lock off the owner's held list, so
// the commit does not release it again.
func TestReleaseThenReleaseAllCountsOnce(t *testing.T) {
	env, m := newLockEnv()
	env.Go("a", func(p *sim.Proc) {
		m.Acquire(p, "a", "l1", IS)
		m.Acquire(p, "a", "l1", S) // re-entrant: a second hold on l1
		m.Acquire(p, "a", "l2", X)
		m.Release("a", "l1")
		if got := m.Stats().Released; got != 2 {
			t.Errorf("Released = %d after Release(l1), want 2", got)
		}
		m.ReleaseAll("a")
		m.ReleaseAll("a") // nothing left: a no-op
	})
	env.Run()
	if got := m.Stats().Released; got != 3 {
		t.Fatalf("Released = %d, want 3 (one per hold)", got)
	}
	if m.Holders("l1") != 0 || m.Holders("l2") != 0 || len(m.held) != 0 {
		t.Fatal("holds left after ReleaseAll")
	}
}

// ReleaseAll wakes the waiters of an owner's locks in the order the owner
// acquired those locks — not in lock-name order and not in map order — so
// a commit's wake-ups are the same on every run.
func TestReleaseAllWakesInAcquisitionOrder(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		env, m := newLockEnv()
		var woke []string
		env.Go("holder", func(p *sim.Proc) {
			for _, name := range []string{"m", "c", "x", "a"} {
				m.Acquire(p, "holder", name, X)
			}
			p.Sleep(time.Millisecond)
			m.ReleaseAll("holder")
		})
		// Queue in the reverse of the acquisition order.
		for _, name := range []string{"a", "x", "c", "m"} {
			name := name
			env.Go("w-"+name, func(p *sim.Proc) {
				m.Acquire(p, p.Name(), name, X)
				woke = append(woke, name)
				m.ReleaseAll(p.Name())
			})
		}
		if blocked := env.Run(); blocked != 0 {
			t.Fatalf("blocked = %d", blocked)
		}
		want := []string{"m", "c", "x", "a"}
		for i := range want {
			if i >= len(woke) || woke[i] != want[i] {
				t.Fatalf("repeat %d: wake order %v, want %v", rep, woke, want)
			}
		}
	}
}

// BenchmarkLockManagerCommit is one DebitCredit's lock traffic — four
// acquisitions and the commit's ReleaseAll — against a manager that has
// already named every account-page lock. Its ns/op must not grow with the
// number of named locks: a commit touches only the locks it holds.
func BenchmarkLockManagerCommit(b *testing.B) {
	for _, pages := range []int{64, 2048} {
		b.Run(fmt.Sprintf("named=%d", pages+3), func(b *testing.B) {
			env, m := newLockEnv()
			names := make([]string, pages)
			for i := range names {
				names[i] = fmt.Sprintf("page:accounts/%d", i)
			}
			var owner interface{} = 1
			env.Go("txn", func(p *sim.Proc) {
				for _, name := range names {
					m.Acquire(p, owner, name, X)
				}
				m.ReleaseAll(owner)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%(1<<16) == 0 {
						// Bound the wait-time series, which keeps a
						// sample per acquisition.
						b.StopTimer()
						m.waited = sim.Series{}
						b.StartTimer()
					}
					m.Acquire(p, owner, "db", IX)
					m.Acquire(p, owner, "rel:accounts", IX)
					m.Acquire(p, owner, names[i%pages], X)
					m.Acquire(p, owner, "idx:accounts", IX)
					m.ReleaseAll(owner)
				}
			})
			env.Run()
		})
	}
}
