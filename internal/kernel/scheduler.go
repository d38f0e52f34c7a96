package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"epcm/internal/plane"
	"epcm/internal/sim"
)

// This file is the fault-delivery plane. Faults, deletion notices and
// control requests are no longer direct Go calls from the kernel into a
// manager: they are typed messages on per-manager mailboxes, drained by a
// Scheduler. Two schedulers exist:
//
//   - the serial scheduler (the default) drains mailboxes on the caller's
//     goroutine in virtual-time order, reproducing the old synchronous call
//     graph exactly — same charge sequence, same stats, same golden output;
//   - the concurrent scheduler gives every manager its own worker goroutine
//     and turns a delivery into an enqueue + blocking wait for the reply,
//     which lets N applications fault against N managers in parallel.
//
// Injection (DeliveryInterceptor), cost accounting (chargeDelivery and
// chargeReturn) and crash recovery (Revoke) all live in processFault /
// processDelete below, so both schedulers get identical semantics per
// message; the scheduler only decides where and when messages run.

// Scheduler routes delivery-plane messages to managers. Implementations
// must call Kernel.processFault / Kernel.processDelete for each message so
// costing, injection and revocation behave identically in every mode.
type Scheduler interface {
	// Name identifies the scheduler ("serial" or "concurrent").
	Name() string
	// Concurrent reports whether managers run on their own goroutines.
	// When true the kernel swaps its mapping caches for sharded, locked
	// variants at install time.
	Concurrent() bool
	// DeliverFault routes a fault to manager m and blocks until it has been
	// handled (or dropped / crashed by injection), returning the result the
	// faulting process observes.
	DeliverFault(m Manager, f Fault) error
	// NotifyDeleted routes a segment-deletion notice to m and blocks until
	// the manager has salvaged its frames.
	NotifyDeleted(m Manager, s *Segment)
	// Exec runs fn in m's delivery context — on m's worker goroutine under
	// the concurrent scheduler — and blocks until it returns. Recovery uses
	// it to run segment adoption where the adopting manager's other work
	// runs, so the manager needs no internal locking.
	Exec(m Manager, fn func())
	// Revoke discards m's queued messages, answering each pending delivery
	// with nil so the faulting processes retry (and re-resolve to the
	// manager that adopted their segments). Under the concurrent scheduler
	// it also retires m's worker goroutine.
	Revoke(m Manager)
	// Stop shuts the scheduler down, releasing any worker goroutines.
	// Further deliveries report ErrNoManager-free nil results; Stop is for
	// end-of-run teardown, not a pause.
	Stop()
}

// deliveryKind discriminates plane messages.
type deliveryKind int

const (
	msgFault deliveryKind = iota
	msgDelete
	msgExec
)

// delivery is one message on the plane. Exactly one of the payload fields
// is meaningful, per kind. The serial scheduler reports completion through
// res; the concurrent scheduler through reply.
type delivery struct {
	kind  deliveryKind
	mgr   Manager
	fault Fault    // msgFault
	seg   *Segment // msgDelete
	fn    func()   // msgExec
	res   *deliveryResult
	reply chan error
}

type deliveryResult struct {
	done bool
	err  error
}

// process runs one plane message to completion. Both schedulers funnel
// every message through here.
func (k *Kernel) process(d delivery) error {
	switch d.kind {
	case msgFault:
		return k.processFault(d.mgr, d.fault)
	case msgDelete:
		k.processDelete(d.mgr, d.seg)
		return nil
	default:
		d.fn()
		return nil
	}
}

// processFault is the delivery path a fault message takes once the
// scheduler hands it to its manager: statistics, the trap cost, the
// injection interceptor, the delivery cost for the manager's mode, the
// handler itself, crash containment, and the return cost. The sequence is
// exactly the pre-plane synchronous path, which is what keeps the serial
// scheduler's output byte-identical.
func (k *Kernel) processFault(m Manager, f Fault) error {
	k.stats.Faults.Add(uint64(f.Seg.id), 1)
	k.stats.ManagerCalls.Add(uint64(f.Seg.id), 1)
	switch f.Kind {
	case FaultMissing:
		k.stats.MissingFaults.Add(uint64(f.Seg.id), 1)
	case FaultProtection:
		k.stats.ProtFaults.Add(uint64(f.Seg.id), 1)
	case FaultCopyOnWrite:
		k.stats.COWFaults.Add(uint64(f.Seg.id), 1)
	}
	sh := k.timeShardOf(m)
	k.clock.Advance(k.cost.Trap)
	tickShard(sh, k.cost.Trap)
	if k.interceptor != nil {
		switch r := k.interceptor(f, m); {
		case r.Crash:
			// The manager process died before fielding the fault. Revoke it;
			// the Access retry loop re-delivers the in-flight fault to the
			// default manager.
			if _, err := k.Revoke(m); err != nil {
				return pageError(fmt.Errorf("%w: %q: %w", ErrManagerCrashed, m.ManagerName(), err), f.Seg, f.Page)
			}
			return nil
		case r.Drop:
			// The delivery was lost; the faulting process just re-faults.
			k.stats.DroppedDeliveries.Add(1)
			return nil
		case r.Delay > 0:
			k.stats.DelayedDeliveries.Add(1)
			k.clock.Advance(r.Delay)
			tickShard(sh, r.Delay)
		}
	}
	tickShard(sh, k.chargeDelivery(m.Delivery()))
	if err := m.HandleFault(f); err != nil {
		if errors.Is(err, ErrManagerCrashed) {
			// The manager died mid-handling. Revoke and let the retry loop
			// re-deliver; only if no fallback exists does the crash surface.
			if _, rerr := k.Revoke(m); rerr == nil {
				return nil
			}
		}
		return fmt.Errorf("%w: %q on %v: %w", ErrManagerFailed, m.ManagerName(), f, err)
	}
	tickShard(sh, k.chargeReturn(m.Delivery()))
	return nil
}

// processDelete is the deletion-notice path: one manager call, the delivery
// cost, and the manager's salvage pass.
func (k *Kernel) processDelete(m Manager, s *Segment) {
	k.stats.ManagerCalls.Add(uint64(s.id), 1)
	tickShard(k.timeShardOf(m), k.chargeDelivery(m.Delivery()))
	m.SegmentDeleted(s)
}

// ---------------------------------------------------------------------------
// Serial scheduler

// serialScheduler drains per-manager mailboxes on the calling goroutine in
// (virtual time, sequence) order. With one application driving the system —
// the deterministic experiment configuration — every enqueue is immediately
// the oldest queued message, so deliveries run in exactly the pre-plane
// synchronous order. It is not safe for concurrent callers; that is the
// concurrent scheduler's job.
type serialScheduler struct {
	k     *Kernel
	group plane.Group[delivery]
	boxes map[Manager]*plane.Mailbox[delivery]
}

// NewSerialScheduler returns the deterministic, single-goroutine scheduler.
// It is the default installed by New.
func NewSerialScheduler(k *Kernel) Scheduler {
	return &serialScheduler{k: k, boxes: make(map[Manager]*plane.Mailbox[delivery])}
}

func (s *serialScheduler) Name() string     { return "serial" }
func (s *serialScheduler) Concurrent() bool { return false }

func (s *serialScheduler) box(m Manager) *plane.Mailbox[delivery] {
	b, ok := s.boxes[m]
	if !ok {
		b = s.group.NewMailbox()
		s.boxes[m] = b
	}
	return b
}

// post enqueues a message and drains the group until that message has been
// processed. Messages a nested delivery enqueues (a deletion notice fired
// while a fault is being handled, say) drain as part of the same loop.
func (s *serialScheduler) post(m Manager, d delivery) error {
	res := &deliveryResult{}
	d.mgr = m
	d.res = res
	s.group.Enqueue(s.box(m), s.k.stampFor(m), d)
	for !res.done {
		env, ok := s.group.PopOldest()
		if !ok {
			// Our message left the queue without running: the manager was
			// revoked with the message still queued. Treat as a lost
			// delivery; the faulting process retries.
			break
		}
		err := s.k.process(env.Msg)
		if env.Msg.res != nil {
			env.Msg.res.done = true
			env.Msg.res.err = err
		}
	}
	return res.err
}

func (s *serialScheduler) DeliverFault(m Manager, f Fault) error {
	return s.post(m, delivery{kind: msgFault, fault: f})
}

func (s *serialScheduler) NotifyDeleted(m Manager, seg *Segment) {
	s.post(m, delivery{kind: msgDelete, seg: seg})
}

func (s *serialScheduler) Exec(m Manager, fn func()) {
	s.post(m, delivery{kind: msgExec, fn: fn})
}

func (s *serialScheduler) Revoke(m Manager) {
	b, ok := s.boxes[m]
	if !ok {
		return
	}
	delete(s.boxes, m)
	s.group.Remove(b)
	for _, env := range b.Drain() {
		if env.Msg.res != nil {
			env.Msg.res.done = true // answered nil: sender re-faults
		}
	}
}

func (s *serialScheduler) Stop() {}

// ---------------------------------------------------------------------------
// Concurrent scheduler

// laneRingCap bounds in-flight messages per manager lane. Each posting
// goroutine has at most one message outstanding, so the cap only matters
// when more drivers than this share one manager; a full ring just makes
// producers yield.
const laneRingCap = 256

// lane is one manager's delivery context under the concurrent scheduler: a
// contention-free MPSC ring of pending messages and a combining token. The
// goroutine holding the token is the lane's executor — it drains the ring
// and processes messages in arrival order, giving each manager the strict
// message serialization the paper's separate manager processes have,
// without a dedicated worker goroutine or a lock rendezvous per message.
type lane struct {
	ring    *plane.Ring[delivery]
	token   atomic.Bool
	revoked atomic.Bool
	// maint is the manager's optional idle hook (LaneMaintainer), resolved
	// once at lane creation so the hot path pays no type assertion.
	maint LaneMaintainer
	// shardClock stamps this lane's envelopes: the manager's time-shard
	// clock when one is bound, else the kernel's global clock. Resolved once
	// at lane creation — the shard-affinity side of the sharded virtual-time
	// engine (lane = manager = time shard) — so the enqueue path pays one
	// pointer read instead of a map lookup.
	shardClock *sim.Clock
	// buf is the executor's drain batch; vecFaults/vecErrs/vecIdx are the
	// vectored-delivery scratch processFaultRun fills from it (vector.go).
	// Only the token holder touches any of them, so none need
	// synchronization, and a batch allocates nothing.
	buf       [laneDrainBatch]plane.Envelope[delivery]
	vecFaults [laneDrainBatch]Fault
	vecErrs   [laneDrainBatch]error
	vecIdx    [laneDrainBatch]int
}

// laneDrainBatch is how many queued messages the executor pulls from the
// ring per PopMany — one head publication amortized over the batch, and the
// ceiling on how many faults one vectored upcall can carry.
const laneDrainBatch = 64

// LaneMaintainer is an optional Manager extension. When a manager
// implements it, the concurrent scheduler calls LaneIdle on the lane's
// executor goroutine each time the lane goes quiet (ring drained, token
// about to be released). The call is serialized with the manager's message
// processing, so implementations may touch manager state freely; they
// should be cheap when there is nothing to do, since the lane goes idle
// after every fault burst. Generic uses it to batch-refill its free-slot
// pool off the fault path.
type LaneMaintainer interface {
	LaneIdle()
}

// concurrentScheduler delivers by flat combining: the faulting goroutine
// that finds a manager's lane idle takes the combining token and processes
// its own message inline — no enqueue, no channel, no goroutine switch — so
// N applications faulting against N managers run their managers' code on
// their own CPUs. Only when a lane is busy does a delivery enqueue onto the
// lane's ring and wait for the current token holder (which drains the ring
// before releasing, and re-checks after releasing, so no message is
// stranded) to answer its reply channel.
type concurrentScheduler struct {
	k *Kernel
	// lanes maps Manager -> *lane. Lane lookup is on the per-fault path, so
	// it uses sync.Map: a steady-state Load is a lock-free read with no
	// shared-cache-line write, where an RWMutex RLock/RUnlock pair costs two
	// contended atomic RMWs per fault. mu serializes the mutators (create,
	// Revoke, Stop).
	lanes   sync.Map
	mu      sync.Mutex
	stopped bool
}

// NewConcurrentScheduler returns the sharded concurrent scheduler. Install
// it with Kernel.SetScheduler (which also swaps the mapping caches for
// their sharded, locked variants), and Stop it when the run ends.
func NewConcurrentScheduler(k *Kernel) Scheduler {
	return &concurrentScheduler{k: k}
}

func (s *concurrentScheduler) Name() string     { return "concurrent" }
func (s *concurrentScheduler) Concurrent() bool { return true }

// laneOf returns m's lane, creating it on first use. Returns nil after Stop.
func (s *concurrentScheduler) laneOf(m Manager) *lane {
	if v, ok := s.lanes.Load(m); ok {
		return v.(*lane)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	if v, ok := s.lanes.Load(m); ok {
		return v.(*lane)
	}
	ln := &lane{ring: plane.NewRing[delivery](laneRingCap), shardClock: s.k.TimeShardClock(m)}
	if lm, ok := m.(LaneMaintainer); ok {
		ln.maint = lm
	}
	s.lanes.Store(m, ln)
	return ln
}

// drainCells processes every queued message of a lane. The caller must hold
// the lane's combining token. Messages of a revoked lane are answered nil —
// lost deliveries, so the faulting processes retry against the adopting
// manager. A run of consecutive fault messages popped in one batch, up to
// the kernel's VectorCap, becomes a single vectored upcall (vector.go); runs
// of one — the only shape a lightly loaded lane ever pops — take the legacy
// per-fault path, so low occupancy passes through untouched.
func (s *concurrentScheduler) drainCells(ln *lane) {
	for {
		n := ln.ring.PopMany(ln.buf[:])
		if n == 0 {
			return
		}
		for i := 0; i < n; {
			if ln.revoked.Load() {
				for ; i < n; i++ {
					env := ln.buf[i]
					ln.buf[i] = plane.Envelope[delivery]{} // drop references early
					if env.Msg.reply != nil {
						env.Msg.reply <- nil
					}
				}
				break
			}
			if run := faultRunLen(ln.buf[i:n], s.k.cfg.VectorCap); run > 1 {
				s.k.processFaultRun(ln, ln.buf[i:i+run])
				for j := i; j < i+run; j++ {
					ln.buf[j] = plane.Envelope[delivery]{}
				}
				i += run
				continue
			}
			env := ln.buf[i]
			ln.buf[i] = plane.Envelope[delivery]{}
			i++
			err := s.k.process(env.Msg)
			if env.Msg.reply != nil {
				env.Msg.reply <- err
			}
		}
	}
}

// combine drains the lane until it is empty with the token released — the
// release-then-recheck closes the race where a producer enqueues just after
// the holder's last pop: either the producer's own token CAS succeeds, or
// this holder's recheck sees the message.
func (s *concurrentScheduler) combine(ln *lane) {
	for {
		s.drainCells(ln)
		if ln.maint != nil && !ln.revoked.Load() {
			ln.maint.LaneIdle()
			s.drainCells(ln) // anything posted while maintaining
		}
		ln.token.Store(false)
		if ln.ring.Len() == 0 {
			return
		}
		if !ln.token.CompareAndSwap(false, true) {
			return // another goroutine took over the lane
		}
	}
}

// post delivers one message to m. Fast path: the lane is idle, so the
// calling goroutine takes the token and runs the manager inline. Slow path:
// enqueue with a reply channel, help combine if the token frees up, and
// wait for the answer. A nil return with no processing (stopped scheduler,
// revoked manager) is a lost delivery; the caller's retry loop re-resolves
// and re-routes.
func (s *concurrentScheduler) post(m Manager, d delivery) error {
	ln := s.laneOf(m)
	if ln == nil {
		return nil
	}
	d.mgr = m
	if ln.ring.Len() == 0 && ln.token.CompareAndSwap(false, true) {
		if ln.revoked.Load() {
			ln.token.Store(false)
			return nil
		}
		s.drainCells(ln) // anything that slipped in first, in order
		err := s.k.process(d)
		s.combine(ln) // drains again, then releases with recheck
		return err
	}
	d.reply = make(chan error, 1)
	if !ln.ring.Put(ln.shardClock.Now(), d) {
		return nil // revoked while posting: lost delivery
	}
	if ln.token.CompareAndSwap(false, true) {
		s.combine(ln)
	}
	// Either this goroutine just combined (answering its own message along
	// the way) or the token holder at CAS time is bound to see the message
	// on its release-recheck.
	return <-d.reply
}

func (s *concurrentScheduler) DeliverFault(m Manager, f Fault) error {
	return s.post(m, delivery{kind: msgFault, fault: f})
}

func (s *concurrentScheduler) NotifyDeleted(m Manager, seg *Segment) {
	s.post(m, delivery{kind: msgDelete, seg: seg})
}

func (s *concurrentScheduler) Exec(m Manager, fn func()) {
	s.post(m, delivery{kind: msgExec, fn: fn})
}

// Revoke marks m's lane dead and answers everything still queued with nil.
// If the token is held — including by this goroutine itself, when a manager
// crash is detected mid-processing and recovery revokes the manager from
// inside its own lane — the holder's drain loop sees the revoked flag and
// answers nil itself.
func (s *concurrentScheduler) Revoke(m Manager) {
	s.mu.Lock()
	v, ok := s.lanes.Load(m)
	s.lanes.Delete(m)
	s.mu.Unlock()
	if !ok {
		return
	}
	ln := v.(*lane)
	ln.revoked.Store(true)
	ln.ring.Close()
	if ln.token.CompareAndSwap(false, true) {
		s.combine(ln)
	}
}

// Stop retires every lane: further deliveries are refused (nil results) and
// queued messages are answered nil. Messages being processed inline finish
// on their posting goroutines; call Stop from outside any delivery (for
// example System.Shutdown or a test's cleanup), when the drivers have
// returned.
func (s *concurrentScheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	var lanes []*lane
	s.lanes.Range(func(key, v any) bool {
		lanes = append(lanes, v.(*lane))
		s.lanes.Delete(key)
		return true
	})
	s.mu.Unlock()
	for _, ln := range lanes {
		ln.revoked.Store(true)
		ln.ring.Close()
		if ln.token.CompareAndSwap(false, true) {
			s.combine(ln)
		}
	}
}

// ---------------------------------------------------------------------------
// Kernel integration

// Scheduler returns the installed delivery-plane scheduler.
func (k *Kernel) Scheduler() Scheduler { return k.sched }

// SetScheduler installs a scheduler, stopping any previous one. Installing
// a concurrent scheduler also swaps the mapping hash table and TLB for
// lock-free CAS variants (castable.go, castlb.go); both are pure caches
// over the authoritative segment page maps, so starting them cold is
// correct (it only costs some extra virtual refill time).
func (k *Kernel) SetScheduler(s Scheduler) {
	if k.sched != nil {
		k.sched.Stop()
	}
	k.sched = s
	if s.Concurrent() {
		// Size the table for the machine: every live mapping is a resident
		// page owning at least one frame, so 2x the frame count keeps the
		// load factor under 50% and the probe window effective. The default
		// 64K floor matches the serial table.
		slots := hashTableSlots
		for slots < 2*k.mem.NumFrames() {
			slots <<= 1
		}
		k.table = newCASTableSized(slots)
		k.tlb = newCASTLB(k.cfg.TLBEntries)
	}
}

// deliverFault resolves the faulted segment's manager and hands the fault
// to the scheduler.
func (k *Kernel) deliverFault(f Fault) error {
	m := f.Seg.managerLoad()
	if m == nil {
		return pageError(ErrNoManager, f.Seg, f.Page)
	}
	return k.sched.DeliverFault(m, f)
}
