package main

import (
	"sync/atomic"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/storage"
)

// The decorators below wrap the seams the system already takes as inputs
// (manager.FrameSource, manager.Policy, storage.BlockStore) so the traced
// run can time each call without changing the system. The manager probes
// its source and policy for optional interfaces, so each decorator exposes
// exactly the optional interfaces of the value it wraps: a wrapper that
// hid ContiguousRunSource or IOAccountant would silently switch the
// manager onto another code path and the traced run would measure a
// different program.

// sourceCounts tallies the grant traffic through one traced source.
type sourceCounts struct {
	requests, frames atomic.Int64
}

type tracedSource struct {
	inner manager.FrameSource
	tr    *tracer
	n     *sourceCounts
}

func (s tracedSource) RequestFrames(g *manager.Generic, n int, c phys.Range) (int, error) {
	d := s.tr.begin(spanRequest)
	got, err := s.inner.RequestFrames(g, n, c)
	s.tr.end(d)
	s.n.requests.Add(1)
	s.n.frames.Add(int64(got))
	return got, err
}

func (s tracedSource) ReturnFrames(g *manager.Generic, slots []int64) error {
	d := s.tr.begin(spanReturn)
	err := s.inner.ReturnFrames(g, slots)
	s.tr.end(d)
	return err
}

type tracedContig struct {
	inner manager.ContiguousSource
	tr    *tracer
	n     *sourceCounts
}

func (s tracedContig) RequestContiguous(g *manager.Generic, n int) (int, error) {
	d := s.tr.begin(spanRequest)
	got, err := s.inner.RequestContiguous(g, n)
	s.tr.end(d)
	s.n.requests.Add(1)
	s.n.frames.Add(int64(got))
	return got, err
}

type tracedRuns struct {
	inner manager.ContiguousRunSource
	tr    *tracer
	n     *sourceCounts
}

func (s tracedRuns) RequestContiguousRuns(g *manager.Generic, n, count int) (int, error) {
	d := s.tr.begin(spanRequest)
	got, err := s.inner.RequestContiguousRuns(g, n, count)
	s.tr.end(d)
	s.n.requests.Add(1)
	s.n.frames.Add(int64(got) * int64(n))
	return got, err
}

type tracedIO struct {
	inner manager.IOAccountant
	tr    *tracer
}

func (s tracedIO) ChargeIO(g *manager.Generic, pages int64) {
	d := s.tr.begin(spanChargeIO)
	s.inner.ChargeIO(g, pages)
	s.tr.end(d)
}

// traceSource wraps src so every grant, return and I/O charge is a span on
// tr, preserving src's optional interfaces.
func traceSource(src manager.FrameSource, tr *tracer, n *sourceCounts) manager.FrameSource {
	base := tracedSource{src, tr, n}
	acct, io := src.(manager.IOAccountant)
	cs, contig := src.(manager.ContiguousSource)
	rs, runs := src.(manager.ContiguousRunSource)
	ioPart := tracedIO{acct, tr}
	switch {
	case runs && io:
		return struct {
			tracedSource
			tracedContig
			tracedRuns
			tracedIO
		}{base, tracedContig{cs, tr, n}, tracedRuns{rs, tr, n}, ioPart}
	case runs:
		return struct {
			tracedSource
			tracedContig
			tracedRuns
		}{base, tracedContig{cs, tr, n}, tracedRuns{rs, tr, n}}
	case contig && io:
		return struct {
			tracedSource
			tracedContig
			tracedIO
		}{base, tracedContig{cs, tr, n}, ioPart}
	case contig:
		return struct {
			tracedSource
			tracedContig
		}{base, tracedContig{cs, tr, n}}
	case io:
		return struct {
			tracedSource
			tracedIO
		}{base, ioPart}
	default:
		return base
	}
}

type tracedPolicy struct {
	inner manager.Policy
	tr    *tracer
}

func (p tracedPolicy) PolicyName() string { return p.inner.PolicyName() }

func (p tracedPolicy) Insert(h manager.PolicyHost, id manager.PageID) {
	d := p.tr.begin(spanInsert)
	p.inner.Insert(h, id)
	p.tr.end(d)
}

func (p tracedPolicy) Touch(h manager.PolicyHost, id manager.PageID) {
	d := p.tr.begin(spanTouch)
	p.inner.Touch(h, id)
	p.tr.end(d)
}

func (p tracedPolicy) Remove(h manager.PolicyHost, id manager.PageID) {
	d := p.tr.begin(spanRemove)
	p.inner.Remove(h, id)
	p.tr.end(d)
}

func (p tracedPolicy) Victim(h manager.PolicyHost) (manager.PageID, kernel.PageFlags, bool, error) {
	d := p.tr.begin(spanVictim)
	id, flags, ok, err := p.inner.Victim(h)
	p.tr.end(d)
	return id, flags, ok, err
}

type tracedExtent struct {
	inner manager.ExtentPolicy
	tr    *tracer
}

func (p tracedExtent) VictimExtent(h manager.PolicyHost, bases []manager.PageID, order int) int {
	d := p.tr.begin(spanVictim)
	i := p.inner.VictimExtent(h, bases, order)
	p.tr.end(d)
	return i
}

// tracePolicy wraps pol so every hook and victim selection is a span on tr,
// preserving pol's ExtentPolicy extension.
func tracePolicy(pol manager.Policy, tr *tracer) manager.Policy {
	base := tracedPolicy{pol, tr}
	if ep, ok := pol.(manager.ExtentPolicy); ok {
		return struct {
			tracedPolicy
			tracedExtent
		}{base, tracedExtent{ep, tr}}
	}
	return base
}

// tracedStore wraps a storage.BlockStore so every block fetch and store is
// a span. BlockStore has no optional extensions.
type tracedStore struct {
	storage.BlockStore
	tr *tracer
}

func (s tracedStore) Fetch(name string, block int64, buf []byte) error {
	d := s.tr.begin(spanFetch)
	err := s.BlockStore.Fetch(name, block, buf)
	s.tr.end(d)
	return err
}

func (s tracedStore) Store(name string, block int64, buf []byte) error {
	d := s.tr.begin(spanStore)
	err := s.BlockStore.Store(name, block, buf)
	s.tr.end(d)
	return err
}
