package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names one layer boundary the traced run records. Spans are taken
// in the benchmark's own files, around calls into the system's public
// seams; nothing inside the system is instrumented.
type spanKind uint8

const (
	spanAccess spanKind = iota
	spanVictim
	spanInsert
	spanTouch
	spanRemove
	spanFetch
	spanStore
	spanRequest
	spanReturn
	spanChargeIO
	spanTable1
	spanTables23
	spanTable4
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanAccess:   "kernel.access",
	spanVictim:   "manager.policy.victim",
	spanInsert:   "manager.policy.insert",
	spanTouch:    "manager.policy.touch",
	spanRemove:   "manager.policy.remove",
	spanFetch:    "storage.fetch",
	spanStore:    "storage.store",
	spanRequest:  "spcm.request",
	spanReturn:   "spcm.return",
	spanChargeIO: "spcm.charge_io",
	spanTable1:   "experiments.table1",
	spanTables23: "experiments.tables23",
	spanTable4:   "experiments.table4",
}

// maxKeptSpans bounds the spans one tracer keeps for the span file: a
// traced window issues millions of spans, and every aggregate below is
// accumulated as spans close, so the kept prefix is only for inspection.
const maxKeptSpans = 1 << 17

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent indexes the tracer's kept spans, -1 for a top-level span
// and -2 for a parent that fell beyond maxKeptSpans.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// openSpan is a span not yet closed, with the time its children covered.
type openSpan struct {
	kind    spanKind
	idx     int32
	start   int64
	childNs int64
}

// tracer records the spans of one driving goroutine. Spans nest by call
// order: a span begun while another is open is its child. The mutex keeps
// the tracer race-free if a seam is ever entered from a goroutine other
// than the driver's (the concurrent scheduler may run a manager's work on
// whichever goroutine combines its lane).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	kept  []span
	stack []openSpan

	count   [numSpanKinds]int64
	totalNs [numSpanKinds]int64
	selfNs  [numSpanKinds]int64
	// topNs is the time covered by top-level spans: the part of the
	// driver's window that some layer accounts for.
	topNs int64
}

// newTracer returns an empty tracer whose clock starts now.
func newTracer() *tracer {
	return &tracer{epoch: time.Now(), kept: make([]span, 0, 1024), stack: make([]openSpan, 0, 16)}
}

// begin opens a span and returns the stack depth end must restore.
func (t *tracer) begin(k spanKind) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	depth := len(t.stack)
	idx := int32(-2)
	if len(t.kept) < maxKeptSpans {
		parent := int32(-1)
		if depth > 0 {
			parent = t.stack[depth-1].idx
		}
		idx = int32(len(t.kept))
		t.kept = append(t.kept, span{kind: k, parent: parent, start: now})
	}
	t.stack = append(t.stack, openSpan{kind: k, idx: idx, start: now})
	t.mu.Unlock()
	return depth
}

// end closes every span opened at or above depth — normally exactly the
// one begin returned depth for — and folds each into the aggregates. A
// span's self time is its duration minus the time its children covered.
func (t *tracer) end(depth int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	for len(t.stack) > depth {
		o := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		dur := now - o.start
		t.count[o.kind]++
		t.totalNs[o.kind] += dur
		t.selfNs[o.kind] += dur - o.childNs
		if n := len(t.stack); n > 0 {
			t.stack[n-1].childNs += dur
		} else {
			t.topNs += dur
		}
		if o.idx >= 0 {
			t.kept[o.idx].end = now
		}
	}
	t.mu.Unlock()
}

// traceSummary merges the aggregates of several tracers.
type traceSummary struct {
	count   [numSpanKinds]int64
	totalNs [numSpanKinds]int64
	selfNs  [numSpanKinds]int64
	topNs   int64
}

func summarize(ts ...*tracer) traceSummary {
	var s traceSummary
	for _, t := range ts {
		t.mu.Lock()
		for k := range s.count {
			s.count[k] += t.count[k]
			s.totalNs[k] += t.totalNs[k]
			s.selfNs[k] += t.selfNs[k]
		}
		s.topNs += t.topNs
		t.mu.Unlock()
	}
	return s
}

// meanNs is the mean duration of the spans of the given kinds.
func (s traceSummary) meanNs(kinds ...spanKind) float64 {
	var n, ns int64
	for _, k := range kinds {
		n += s.count[k]
		ns += s.totalNs[k]
	}
	return ratio(float64(ns), float64(n))
}

// writeSpans writes every kept span of the tracers as tab-separated rows
// (tracer, id, parent, name, start_ns, end_ns).
func writeSpans(path string, ts ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\tid\tparent\tname\tstart_ns\tend_ns")
	for ti, t := range ts {
		t.mu.Lock()
		for i, sp := range t.kept {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", ti, i, sp.parent, spanNames[sp.kind], sp.start, sp.end)
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
