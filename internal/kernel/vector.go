package kernel

import (
	"errors"
	"fmt"

	"epcm/internal/plane"
)

// Vectored fault delivery. Under the concurrent scheduler, a lane executor
// that drains its ring and finds several faults queued for the same manager
// hands them to the manager as ONE vectored upcall instead of N separate
// calls. That is the paper's trap+upcall cost argument applied end-to-end:
// the per-delivery overheads (one Trap, one delivery charge, one return
// charge, one ManagerCalls tick) are paid once per batch, while the
// per-fault work (fault-kind stats, injection, the resolution itself) is
// still paid per fault.
//
// A run of length 1 — and every fault delivered inline on the fast path or
// by the serial scheduler — takes the legacy processFault path untouched,
// so single-fault latency, the charge sequence, and the golden output are
// byte-identical whether vectoring is on or off. Batches only ever form
// when multiple producers genuinely queue behind one manager.
//
// Crash semantics mid-batch: faults the interceptor drops or crashes are
// answered before the manager ever sees the batch, exactly as in the serial
// path. If the manager crashes while handling the vector, the whole batch
// is answered nil after revocation — none of its faults were resolved
// past the kernel's own bookkeeping (a fault the manager did resolve before
// dying left its page present, so the retry is absorbed by the page-present
// check; an unresolved fault re-faults against the adopting manager). No
// fault is lost and none can double-resolve: resolution is MigratePages
// into the faulted page, which the kernel rejects with ErrPageBusy if run
// twice.

// VectorHandler is the optional Manager extension for vectored delivery.
// The kernel calls HandleFaultVector with a batch of at least two faults
// for this manager and a parallel result slice, all entries nil. The
// handler stores each fault's outcome in errs[i] — the same values
// HandleFault would return, including ErrManagerCrashed for a mid-batch
// death. Both slices are kernel-owned scratch; implementations must not
// retain them. Managers that do not implement VectorHandler get the batch
// as HandleFault calls in order, still under the batched delivery charges.
type VectorHandler interface {
	HandleFaultVector(fs []Fault, errs []error)
}

// faultRunLen reports how many envelopes from the front of envs form one
// vectored batch: consecutive msgFault messages, at most lim of them. A
// non-fault head yields 1 so the caller routes it through process(), and
// lim 1 — the -vector=false ablation — never yields a run over 1. Pure:
// batch assembly is a function of ring contents and the kernel's
// VectorCap alone, which is what keeps it deterministic.
func faultRunLen(envs []plane.Envelope[delivery], lim int) int {
	if lim > len(envs) {
		lim = len(envs)
	}
	n := 0
	for n < lim && envs[n].Msg.kind == msgFault {
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

// replyRun answers every not-yet-answered envelope of a run with err.
func replyRun(envs []plane.Envelope[delivery], err error) {
	for _, env := range envs {
		if env.Msg.reply != nil {
			env.Msg.reply <- err
		}
	}
}

// processFaultRun delivers a run of ≥2 fault messages for one manager as a
// single vectored upcall, answering every envelope's reply channel itself.
// The caller is the lane executor and must have popped the run off ln's
// ring. The charge sequence parallels processFault with the per-delivery
// legs hoisted out of the loop: stats and injection per fault; Trap,
// delivery, ManagerCalls and return once per batch.
func (k *Kernel) processFaultRun(ln *lane, envs []plane.Envelope[delivery]) {
	m := envs[0].Msg.mgr
	sh := k.timeShardOf(m)
	k.stats.ManagerCalls.Add(uint64(envs[0].Msg.fault.Seg.id), 1)
	k.stats.VectoredBatches.Add(1)
	k.clock.Advance(k.cost.Trap)
	tickShard(sh, k.cost.Trap)
	nf := 0 // survivors collected into ln.vecFaults
	for i := range envs {
		f := envs[i].Msg.fault
		k.stats.Faults.Add(uint64(f.Seg.id), 1)
		switch f.Kind {
		case FaultMissing:
			k.stats.MissingFaults.Add(uint64(f.Seg.id), 1)
		case FaultProtection:
			k.stats.ProtFaults.Add(uint64(f.Seg.id), 1)
		case FaultCopyOnWrite:
			k.stats.COWFaults.Add(uint64(f.Seg.id), 1)
		}
		if k.interceptor != nil {
			switch r := k.interceptor(f, m); {
			case r.Crash:
				// The manager died before fielding the batch. Nothing in it
				// was handled: answer the current and remaining envelopes,
				// and the survivors already collected, all as lost
				// deliveries so their posters retry against the adopter.
				var err error
				if _, rerr := k.Revoke(m); rerr != nil {
					err = pageError(fmt.Errorf("%w: %q: %w", ErrManagerCrashed, m.ManagerName(), rerr), f.Seg, f.Page)
				}
				replyRun(envs[i:], err)
				for j := 0; j < nf; j++ {
					env := envs[ln.vecIdx[j]]
					if env.Msg.reply != nil {
						env.Msg.reply <- err
					}
				}
				return
			case r.Drop:
				k.stats.DroppedDeliveries.Add(1)
				if envs[i].Msg.reply != nil {
					envs[i].Msg.reply <- nil
				}
				continue
			case r.Delay > 0:
				k.stats.DelayedDeliveries.Add(1)
				k.clock.Advance(r.Delay)
				tickShard(sh, r.Delay)
			}
		}
		ln.vecFaults[nf] = f
		ln.vecIdx[nf] = i
		nf++
	}
	if nf == 0 {
		return // everything dropped; the Trap was still paid
	}
	k.stats.VectoredFaults.Add(int64(nf))
	tickShard(sh, k.chargeDelivery(m.Delivery()))
	fs := ln.vecFaults[:nf]
	errs := ln.vecErrs[:nf]
	for i := range errs {
		errs[i] = nil
	}
	if vh, ok := m.(VectorHandler); ok {
		vh.HandleFaultVector(fs, errs)
	} else {
		for i, f := range fs {
			errs[i] = m.HandleFault(f)
		}
	}
	for _, err := range errs {
		if err != nil && errors.Is(err, ErrManagerCrashed) {
			// Mid-batch death. Revoke; every fault in the batch is answered
			// as a lost delivery (resolved ones re-fault into the
			// page-present check, unresolved ones re-fault to the adopter).
			// Only if no fallback exists does the crash surface, per fault.
			if _, rerr := k.Revoke(m); rerr == nil {
				for i := range fs {
					env := envs[ln.vecIdx[i]]
					if env.Msg.reply != nil {
						env.Msg.reply <- nil
					}
				}
				return
			}
			break
		}
	}
	// One return charge for the batch: the vectored upcall returns to the
	// kernel once however many faults it carried.
	tickShard(sh, k.chargeReturn(m.Delivery()))
	for i, f := range fs {
		err := errs[i]
		if err != nil {
			err = fmt.Errorf("%w: %q on %v: %w", ErrManagerFailed, m.ManagerName(), f, err)
		}
		env := envs[ln.vecIdx[i]]
		if env.Msg.reply != nil {
			env.Msg.reply <- err
		}
	}
}
