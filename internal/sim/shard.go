package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the sharded virtual-time engine: the conservative parallel
// discrete-event simulation (windowed / YAWNS-style) drain that lets
// per-manager event queues advance concurrently.
//
// The safety argument is the classic conservative one. Let GVT be the
// minimum next-event time across all shards and L the lookahead — the hard
// lower bound on how far in the future any cross-shard message may land
// (CostModel.MinDeliveryLatency: no manager can observe another manager's
// action in less than a trap plus an upcall). Every event executed in the
// window [GVT, GVT+L) has timestamp t >= GVT, so any message it sends
// arrives at t+L >= GVT+L — strictly after the window. Shards therefore
// drain their own queues for one window with no coordination at all;
// cross-shard sends buffer into the destination's inbox and merge at the
// window barrier in a deterministic total order (at, source shard, source
// sequence), the sharded analogue of the serial heap's (at, seq) order.
//
// With one shard the window loop pops the same heap in the same (at, seq)
// order the serial engine does, advancing the same clock — which is why
// reproduce.golden stays byte-identical under the sharded engine.

// ---------------------------------------------------------------------------
// Shard

// Shard is one partition of a sharded environment: an event heap, a local
// clock, and the parked-process rendezvous for the simulated processes
// pinned to it. During a lookahead window each shard is drained by exactly
// one goroutine, so none of its fields need locks except the inbox, which
// other shards append cross-shard sends to.
type Shard struct {
	env   *Env
	id    int
	clock *Clock

	events eventHeap
	seq    int64

	parked  chan struct{} // signalled when the running proc parks or finishes
	active  int           // procs started and not yet finished
	blocked int           // procs parked with no pending wake event

	processed int64 // events dispatched, for model-throughput metrics

	// sendSeq counts this shard's outbound cross-shard sends; it breaks
	// timestamp ties deterministically at the merge barrier.
	sendSeq int64

	// inbox buffers events other shards send here during a window, merged
	// into the heap at the window barrier.
	inboxMu sync.Mutex
	inbox   []inbound
}

// inbound is a cross-shard event waiting at the merge barrier.
type inbound struct {
	at     time.Duration
	src    int
	srcSeq int64
	fn     func()
}

// ID reports the shard's index within its environment.
func (s *Shard) ID() int { return s.id }

// Clock returns the shard's local clock (the environment's global clock for
// shard 0). Clocks are atomic, so other shards may read a horizon from it
// concurrently.
func (s *Shard) Clock() *Clock { return s.clock }

// Now returns the shard's current local virtual time.
func (s *Shard) Now() time.Duration { return s.clock.Now() }

// push assigns the next local sequence number and queues the event.
func (s *Shard) push(ev event) {
	if s.events == nil {
		s.events = make(eventHeap, 0, eventHeapInitialCap)
	}
	s.seq++
	ev.seq = s.seq
	s.events.push(ev)
}

// At schedules fn to run on this shard at absolute local virtual time t
// (which must not be in the past). fn runs in the shard's drain goroutine
// and must not block.
func (s *Shard) At(t time.Duration, fn func()) {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", t, s.clock.Now()))
	}
	s.push(event{at: t, fn: fn})
}

// After schedules fn to run d from the shard's current local time.
func (s *Shard) After(d time.Duration, fn func()) { s.At(s.clock.Now()+d, fn) }

// Go starts a new simulated process on this shard running body. The process
// begins at the shard's current virtual time, after the caller yields to
// the scheduler.
func (s *Shard) Go(name string, body func(p *Proc)) *Proc {
	return s.GoAt(s.clock.Now(), name, body)
}

// GoAt is like Go but the process starts at absolute local virtual time t.
// Only the start event is queued here: the process's goroutine is created
// by its first dispatch, so a long arrival stream scheduled up front costs
// no parked goroutines (and no stacks for the GC to scan) until each
// process is due, and a process never dispatched never starts at all.
func (s *Shard) GoAt(t time.Duration, name string, body func(p *Proc)) *Proc {
	if t < s.clock.Now() {
		panic("sim: process scheduled to start in the past")
	}
	p := &Proc{shard: s, name: name, body: body}
	s.active++
	s.push(event{at: t, proc: p})
	return p
}

// start launches a process's goroutine at its first dispatch.
func (s *Shard) start(p *Proc) {
	body := p.body
	p.body = nil
	p.resume = make(chan struct{})
	go func() {
		body(p)
		s.active--
		s.parked <- struct{}{} // signal completion to the scheduler
	}()
}

// Wake schedules parked process q to resume at q's shard's current virtual
// time. The caller must be running on q's shard.
func (s *Shard) Wake(q *Proc) {
	t := q.shard
	t.blocked--
	t.push(event{at: t.clock.Now(), proc: q})
}

// Send schedules fn to run on shard dst at absolute time at (dst's local
// clock). A same-shard send is an ordinary At. A cross-shard send must
// respect the conservative lookahead: at least the environment's lookahead
// past this shard's current time — the virtual-time analogue of "no manager
// observes another manager's action in less than the minimum delivery
// latency". The event buffers in dst's inbox and merges at the next window
// barrier, ordered by (at, source shard, source sequence).
func (s *Shard) Send(dst *Shard, at time.Duration, fn func()) {
	if dst.env != s.env {
		panic("sim: cross-environment send")
	}
	if dst == s {
		s.At(at, fn)
		return
	}
	if horizon := s.clock.Now() + s.env.lookahead; at < horizon {
		panic(fmt.Sprintf("sim: cross-shard send below the lookahead horizon (at %v < %v, lookahead %v)",
			at, horizon, s.env.lookahead))
	}
	s.sendSeq++
	in := inbound{at: at, src: s.id, srcSeq: s.sendSeq, fn: fn}
	dst.inboxMu.Lock()
	dst.inbox = append(dst.inbox, in)
	dst.inboxMu.Unlock()
}

// dispatch runs one popped event: start or resume its process and wait for
// the park, or invoke the timer callback.
func (s *Shard) dispatch(ev event) {
	s.processed++
	if p := ev.proc; p != nil {
		if p.body != nil {
			s.start(p)
		} else {
			p.resume <- struct{}{}
		}
		<-s.parked // run until it parks or finishes
	} else {
		ev.fn()
	}
}

// drainSerial is the serial engine's loop, verbatim: pop in (at, seq) order
// through the deadline, advancing the clock to each event.
func (s *Shard) drainSerial(deadline time.Duration) {
	for len(s.events) > 0 {
		if s.events[0].at > deadline {
			break
		}
		ev := s.events.pop()
		s.clock.AdvanceTo(ev.at)
		s.dispatch(ev)
	}
}

// drainWindow drains this shard's events with timestamps strictly below
// bound. Events scheduled during the window (wakes, sleeps) that land below
// bound run within it; cross-shard arrivals cannot land below bound, by the
// lookahead argument at the top of the file.
func (s *Shard) drainWindow(bound time.Duration) {
	for len(s.events) > 0 && s.events[0].at < bound {
		ev := s.events.pop()
		s.clock.AdvanceTo(ev.at)
		s.dispatch(ev)
	}
}

// ---------------------------------------------------------------------------
// Windowed run loop

// nextEventTime reports the minimum next-event time across all shards — the
// GVT of the conservative window — and whether any event is pending.
func (e *Env) nextEventTime() (time.Duration, bool) {
	var gvt time.Duration
	any := false
	for _, s := range e.shards {
		if len(s.events) == 0 {
			continue
		}
		if !any || s.events[0].at < gvt {
			gvt = s.events[0].at
		}
		any = true
	}
	return gvt, any
}

// runWindows is the sharded engine's drive loop: compute the window
// [GVT, min(GVT+lookahead, deadline+1)), drain every shard with runnable
// events concurrently, then merge the cross-shard inboxes at the barrier.
func (e *Env) runWindows(deadline time.Duration) int {
	for {
		gvt, any := e.nextEventTime()
		if !any || gvt > deadline {
			break
		}
		bound := gvt + e.lookahead
		if bound <= gvt {
			bound = gvt + 1 // guard a zero lookahead: always make progress
		}
		if bound > deadline+1 {
			bound = deadline + 1
		}
		e.windows++
		e.active = e.active[:0]
		for _, s := range e.shards {
			if len(s.events) > 0 && s.events[0].at < bound {
				e.active = append(e.active, s)
			}
		}
		if len(e.active) == 1 {
			e.active[0].drainWindow(bound)
		} else {
			var wg sync.WaitGroup
			for _, s := range e.active {
				wg.Add(1)
				go func(s *Shard) {
					defer wg.Done()
					s.drainWindow(bound)
				}(s)
			}
			wg.Wait()
		}
		e.mergeInboxes()
	}
	blocked := 0
	for _, s := range e.shards {
		blocked += s.blocked
	}
	return blocked
}

// mergeInboxes folds every shard's buffered cross-shard arrivals into its
// heap at the window barrier. Arrivals are ordered by (at, source shard,
// source sequence) before local sequence numbers are assigned, so the total
// order — and therefore the run — is deterministic regardless of how the
// window's shard goroutines interleaved on the wall clock. It runs with the
// window goroutines quiesced, so no inbox lock is needed.
func (e *Env) mergeInboxes() {
	for _, s := range e.shards {
		if len(s.inbox) == 0 {
			continue
		}
		in := s.inbox
		sort.Slice(in, func(i, j int) bool {
			if in[i].at != in[j].at {
				return in[i].at < in[j].at
			}
			if in[i].src != in[j].src {
				return in[i].src < in[j].src
			}
			return in[i].srcSeq < in[j].srcSeq
		})
		for i := range in {
			if in[i].at < s.clock.Now() {
				// Unreachable if the lookahead bound is sound; a violation
				// here means an event was delivered inside its send window.
				panic(fmt.Sprintf("sim: shard %d merged event at %v behind its clock %v",
					s.id, in[i].at, s.clock.Now()))
			}
			s.push(event{at: in[i].at, fn: in[i].fn})
			s.inbox[i] = inbound{}
		}
		s.inbox = s.inbox[:0]
	}
}
