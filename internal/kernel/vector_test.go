package kernel

// Tests for vectored fault delivery: batch assembly must be a pure function
// of ring contents (same queued messages => same batch partition and order,
// every time), the vectored upcall must see faults in ring order, and the
// batched charge/crash semantics must match the serial path's contract.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"epcm/internal/plane"
)

// vecRecorder is a manager that records how faults arrive: one entry per
// upcall, each entry the pages that upcall carried (length 1 for the
// serial HandleFault path). It resolves nothing — the tests below own the
// reply channels directly, so no retry loop is waiting on resolution.
type vecRecorder struct {
	batches [][]int64
	crashAt int // if >0, report ErrManagerCrashed for batch member crashAt-1 onwards
}

func (m *vecRecorder) ManagerName() string       { return "vec-recorder" }
func (m *vecRecorder) Delivery() DeliveryMode    { return DeliverSameProcess }
func (m *vecRecorder) SegmentDeleted(s *Segment) {}
func (m *vecRecorder) HandleFault(f Fault) error {
	m.batches = append(m.batches, []int64{f.Page})
	return nil
}
func (m *vecRecorder) HandleFaultVector(fs []Fault, errs []error) {
	pages := make([]int64, len(fs))
	for i, f := range fs {
		pages[i] = f.Page
		if m.crashAt > 0 && i >= m.crashAt-1 {
			errs[i] = ErrManagerCrashed
		}
	}
	m.batches = append(m.batches, pages)
}

var _ VectorHandler = (*vecRecorder)(nil)

// vecLane builds a concurrent-scheduler lane for m with the combining
// token held by the test, so queued messages sit in the ring until the
// test calls drainCells — the deterministic way to form a batch.
func vecLane(t *testing.T, k *Kernel, m Manager) (*concurrentScheduler, *lane) {
	t.Helper()
	k.SetScheduler(NewConcurrentScheduler(k))
	t.Cleanup(k.Scheduler().Stop)
	s := k.Scheduler().(*concurrentScheduler)
	ln := s.laneOf(m)
	ln.token.Store(true)
	return s, ln
}

// enqueueFault posts one fault message straight onto the lane ring (the
// shape post() produces on its slow path) and returns its reply channel.
func enqueueFault(t *testing.T, ln *lane, m Manager, seg *Segment, page int64) chan error {
	t.Helper()
	reply := make(chan error, 1)
	d := delivery{kind: msgFault, mgr: m, fault: Fault{Seg: seg, Page: page, Kind: FaultMissing, Access: Read}, reply: reply}
	if !ln.ring.Put(ln.shardClock.Now(), d) {
		t.Fatal("ring rejected enqueue")
	}
	return reply
}

func enqueueExec(t *testing.T, ln *lane, m Manager, fn func()) chan error {
	t.Helper()
	reply := make(chan error, 1)
	if !ln.ring.Put(ln.shardClock.Now(), delivery{kind: msgExec, mgr: m, fn: fn, reply: reply}) {
		t.Fatal("ring rejected enqueue")
	}
	return reply
}

// drainBatches queues the pages (with a nil page meaning an interleaved
// exec message), drains the lane, and returns the recorded upcall shape.
func drainBatches(t *testing.T, vectorCap int, pages []int64, execAfter map[int]bool) [][]int64 {
	t.Helper()
	k := newKernelWith(t, Config{VectorCap: vectorCap})
	m := &vecRecorder{}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for i, p := range pages {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
		if execAfter[i] {
			replies = append(replies, enqueueExec(t, ln, m, func() {}))
		}
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("message %d answered with %v", i, err)
			}
		default:
			t.Fatalf("message %d never answered", i)
		}
	}
	return m.batches
}

// TestVectoredBatchAssemblyDeterministic: the partition of queued faults
// into vectored upcalls is a function of ring contents alone. Identical
// ring contents must produce identical batch boundaries and identical
// in-batch order, run after run; a non-fault message splits the run
// exactly where it sits in the queue.
func TestVectoredBatchAssemblyDeterministic(t *testing.T) {
	pages := []int64{7, 3, 11, 5, 2, 9, 13, 1}
	want := fmt.Sprint([][]int64{pages})
	for trial := 0; trial < 3; trial++ {
		got := fmt.Sprint(drainBatches(t, 0, pages, nil))
		if got != want {
			t.Fatalf("trial %d: batches %s, want %s", trial, got, want)
		}
	}
	// An exec message after the third fault splits the batch there: the
	// faults before it form one vector, the faults after it another.
	wantSplit := fmt.Sprint([][]int64{{7, 3, 11}, {5, 2, 9, 13, 1}})
	for trial := 0; trial < 3; trial++ {
		got := fmt.Sprint(drainBatches(t, 0, pages, map[int]bool{2: true}))
		if got != wantSplit {
			t.Fatalf("split trial %d: batches %s, want %s", trial, got, wantSplit)
		}
	}
}

// TestVectorBatchCap: the adaptive-drain cap bounds each upcall; a cap of
// one degenerates to the serial per-fault path (batches of length 1 go
// through HandleFault, not HandleFaultVector).
func TestVectorBatchCap(t *testing.T) {
	pages := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := fmt.Sprint(drainBatches(t, 4, pages, nil))
	want := fmt.Sprint([][]int64{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}})
	if got != want {
		t.Fatalf("cap 4: batches %s, want %s", got, want)
	}
	got = fmt.Sprint(drainBatches(t, 1, pages, nil))
	want = fmt.Sprint([][]int64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}})
	if got != want {
		t.Fatalf("cap 1: batches %s, want %s", got, want)
	}
}

// TestVectoredDisabledTakesSerialPath: with the -vector=false ablation
// (VectorCap 1) the same ring contents are delivered as per-fault
// HandleFault calls in the same order, and no vectored-batch stats tick.
func TestVectoredDisabledTakesSerialPath(t *testing.T) {
	pages := []int64{4, 2, 6, 1}
	got := fmt.Sprint(drainBatches(t, 1, pages, nil))
	want := fmt.Sprint([][]int64{{4}, {2}, {6}, {1}})
	if got != want {
		t.Fatalf("ablation: batches %s, want %s", got, want)
	}
}

// TestVectoredBatchCharges: a batch of n faults pays the per-delivery legs
// once — one ManagerCalls, one vectored batch — while the per-fault side
// (Faults, the kind counters) still ticks n times, and the virtual clock
// advances by exactly one delivery plus nothing per extra fault (the
// recorder resolves without kernel calls).
func TestVectoredBatchCharges(t *testing.T) {
	k := newTestKernel(t)
	m := &vecRecorder{}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	const n = 6
	var replies []chan error
	for p := int64(0); p < n; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	before := k.Clock().Now()
	s.drainCells(ln)
	ln.token.Store(false)
	for _, ch := range replies {
		<-ch
	}
	st := k.Stats()
	if st.ManagerCalls != 1 {
		t.Fatalf("ManagerCalls = %d, want 1 for one vectored upcall", st.ManagerCalls)
	}
	if st.Faults != n || st.MissingFaults != n {
		t.Fatalf("Faults/MissingFaults = %d/%d, want %d/%d", st.Faults, st.MissingFaults, n, n)
	}
	if st.VectoredBatches != 1 || st.VectoredFaults != n {
		t.Fatalf("VectoredBatches/VectoredFaults = %d/%d, want 1/%d", st.VectoredBatches, st.VectoredFaults, n)
	}
	// One trap + one same-process delivery + one return for the whole
	// batch: the clock moved by exactly the single-fault delivery cost.
	cost := k.Cost()
	wantAdv := cost.Trap + cost.Upcall + cost.ResumeDirect
	if adv := k.Clock().Now() - before; adv != wantAdv {
		t.Fatalf("clock advanced %v for a %d-fault batch, want the single-delivery %v", adv, n, wantAdv)
	}
}

// TestVectoredMidBatchCrash: when the manager dies partway through a
// vector, every fault in the batch — handled or not — is answered as a
// lost delivery (nil) after revocation, so posters retry against the
// adopter; none errors out and none is left unanswered.
func TestVectoredMidBatchCrash(t *testing.T) {
	k := newTestKernel(t)
	m := &vecRecorder{crashAt: 3}
	fallback := &vecRecorder{}
	k.SetDefaultManager(fallback)
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 5; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("fault %d answered %v, want nil lost-delivery", i, err)
			}
		default:
			t.Fatalf("fault %d never answered", i)
		}
	}
	if got := seg.Manager(); got != Manager(fallback) {
		t.Fatalf("segment managed by %v after crash, want fallback", got)
	}
	if k.Stats().Revocations == 0 {
		t.Fatal("crash recorded no revocation")
	}
}

// TestVectoredInterceptorPerFault: injection still sees every fault of a
// batch individually — a drop answers just that fault, a delay charges
// just once per delayed fault, and the rest of the batch is delivered.
func TestVectoredInterceptorPerFault(t *testing.T) {
	k := newTestKernel(t)
	m := &vecRecorder{}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	k.SetInterceptor(func(f Fault, _ Manager) InterceptResult {
		switch f.Page {
		case 1:
			return InterceptResult{Drop: true}
		case 3:
			return InterceptResult{Delay: 5 * time.Millisecond}
		}
		return InterceptResult{}
	})
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 5; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("fault %d answered %v", i, err)
			}
		default:
			t.Fatalf("fault %d never answered", i)
		}
	}
	want := fmt.Sprint([][]int64{{0, 2, 3, 4}})
	if got := fmt.Sprint(m.batches); got != want {
		t.Fatalf("delivered %s, want %s (page 1 dropped before the upcall)", got, want)
	}
	st := k.Stats()
	if st.DroppedDeliveries != 1 || st.DelayedDeliveries != 1 {
		t.Fatalf("dropped/delayed = %d/%d, want 1/1", st.DroppedDeliveries, st.DelayedDeliveries)
	}
}

// TestFaultRunLenPure: run assembly never looks past the cap or the first
// non-fault message, and a non-fault head always yields a run of one.
func TestFaultRunLenPure(t *testing.T) {
	mkEnvs := func(kinds ...deliveryKind) []plane.Envelope[delivery] {
		envs := make([]plane.Envelope[delivery], len(kinds))
		for i, kd := range kinds {
			envs[i].Msg = delivery{kind: kd}
		}
		return envs
	}
	cases := []struct {
		kinds []deliveryKind
		cap   int
		want  int
	}{
		{[]deliveryKind{msgFault, msgFault, msgFault}, laneDrainBatch, 3},
		{[]deliveryKind{msgFault, msgFault, msgDelete, msgFault}, laneDrainBatch, 2},
		{[]deliveryKind{msgDelete, msgFault, msgFault}, laneDrainBatch, 1},
		{[]deliveryKind{msgExec}, laneDrainBatch, 1},
		{[]deliveryKind{msgFault, msgFault, msgFault, msgFault}, 2, 2},
		{[]deliveryKind{msgFault}, 1, 1},
	}
	for i, c := range cases {
		for trial := 0; trial < 3; trial++ {
			if got := faultRunLen(mkEnvs(c.kinds...), c.cap); got != c.want {
				t.Fatalf("case %d trial %d: run %d, want %d", i, trial, got, c.want)
			}
		}
	}
}

// TestVectorHandlerErrorsWrapPerFault: a handler error for one member of a
// batch surfaces as ErrManagerFailed on that fault's reply alone; its
// batchmates still succeed.
func TestVectorHandlerErrorsWrapPerFault(t *testing.T) {
	k := newTestKernel(t)
	m := &vecFailOne{failPage: 2}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 4; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		err := <-ch
		if int64(i) == m.failPage {
			if !errors.Is(err, ErrManagerFailed) {
				t.Fatalf("fault %d answered %v, want ErrManagerFailed", i, err)
			}
		} else if err != nil {
			t.Fatalf("fault %d answered %v, want nil", i, err)
		}
	}
}

type vecFailOne struct {
	failPage int64
}

func (m *vecFailOne) ManagerName() string       { return "vec-fail-one" }
func (m *vecFailOne) Delivery() DeliveryMode    { return DeliverSameProcess }
func (m *vecFailOne) SegmentDeleted(s *Segment) {}
func (m *vecFailOne) HandleFault(f Fault) error { return nil }
func (m *vecFailOne) HandleFaultVector(fs []Fault, errs []error) {
	for i, f := range fs {
		if f.Page == m.failPage {
			errs[i] = errors.New("injected per-fault failure")
		}
	}
}
