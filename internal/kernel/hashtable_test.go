package kernel

import (
	"testing"
	"testing/quick"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

func TestMappingTableInsertLookupRemove(t *testing.T) {
	mt := newMappingTable()
	e1, e2 := &pageEntry{}, &pageEntry{}
	k1 := mapKey{seg: 3, page: 7}
	k2 := mapKey{seg: 4, page: 7}
	mt.insert(k1, e1)
	mt.insert(k2, e2)
	if got, ok := mt.lookup(k1); !ok || got != e1 {
		t.Fatal("lookup k1 failed")
	}
	if got, ok := mt.lookup(k2); !ok || got != e2 {
		t.Fatal("lookup k2 failed")
	}
	mt.remove(k1)
	if _, ok := mt.lookup(k1); ok {
		t.Fatal("k1 still present after remove")
	}
	if _, ok := mt.lookup(k2); !ok {
		t.Fatal("k2 lost by removing k1")
	}
}

func TestMappingTableReinsertSameKey(t *testing.T) {
	mt := newMappingTable()
	k := mapKey{seg: 1, page: 1}
	e1, e2 := &pageEntry{}, &pageEntry{}
	mt.insert(k, e1)
	mt.insert(k, e2)
	if got, _ := mt.lookup(k); got != e2 {
		t.Fatal("reinsert did not replace entry")
	}
	if mt.spills != 0 {
		t.Fatal("reinsert of same key should not spill")
	}
}

// collidingKeys finds n distinct keys that hash to the same direct-mapped
// slot, to exercise the overflow area.
func collidingKeys(mt *mappingTable, n int) []mapKey {
	want := mt.index(mapKey{seg: 1, page: 0})
	keys := []mapKey{{seg: 1, page: 0}}
	for p := int64(1); len(keys) < n; p++ {
		k := mapKey{seg: 1, page: p}
		if mt.index(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestMappingTableOverflowSpill(t *testing.T) {
	mt := newMappingTable()
	keys := collidingKeys(mt, 3)
	entries := []*pageEntry{{}, {}, {}}
	for i, k := range keys {
		mt.insert(k, entries[i])
	}
	// All three must still be found: one in the slot, two in overflow.
	for i, k := range keys {
		if got, ok := mt.lookup(k); !ok || got != entries[i] {
			t.Fatalf("colliding key %d lost after spill", i)
		}
	}
	if mt.spills != 2 {
		t.Fatalf("spills = %d, want 2", mt.spills)
	}
}

func TestMappingTableOverflowFullDrops(t *testing.T) {
	mt := newMappingTable()
	keys := collidingKeys(mt, hashOverflow+2)
	for _, k := range keys {
		mt.insert(k, &pageEntry{})
	}
	if mt.drops == 0 {
		t.Fatal("expected drops after overflowing the 32-entry area")
	}
	// The most recent insert always lands in the direct slot.
	if _, ok := mt.lookup(keys[len(keys)-1]); !ok {
		t.Fatal("most recent insert missing")
	}
	// A drop is not an error: the authoritative segment map still has the
	// page; the kernel just pays a slow walk. Here we only require that
	// lookups of dropped keys report a miss rather than wrong data.
	found := 0
	for _, k := range keys {
		if _, ok := mt.lookup(k); ok {
			found++
		}
	}
	if found != hashOverflow+1 { // 32 overflow entries + 1 direct slot
		t.Fatalf("found %d of %d colliding keys, want %d", found, len(keys), hashOverflow+1)
	}
}

func TestMappingTableRemoveSegment(t *testing.T) {
	mt := newMappingTable()
	for p := int64(0); p < 100; p++ {
		mt.insert(mapKey{seg: 5, page: p}, &pageEntry{})
		mt.insert(mapKey{seg: 6, page: p}, &pageEntry{})
	}
	mt.removeSegment(5)
	for p := int64(0); p < 100; p++ {
		if _, ok := mt.lookup(mapKey{seg: 5, page: p}); ok {
			t.Fatalf("segment 5 page %d survived removeSegment", p)
		}
	}
	kept := 0
	for p := int64(0); p < 100; p++ {
		if _, ok := mt.lookup(mapKey{seg: 6, page: p}); ok {
			kept++
		}
	}
	if kept < 95 { // a few may have been displaced/dropped by collisions
		t.Fatalf("segment 6 lost too many mappings: kept %d", kept)
	}
}

// Property: against a reference map, a lookup never returns a wrong entry —
// it either reports the true entry or (after displacement) a miss.
func TestMappingTableNeverWrong(t *testing.T) {
	mt := newMappingTable()
	ref := make(map[mapKey]*pageEntry)
	f := func(segs []uint8, pages []uint8) bool {
		n := len(segs)
		if len(pages) < n {
			n = len(pages)
		}
		for i := 0; i < n; i++ {
			k := mapKey{seg: SegID(segs[i]%8) + 1, page: int64(pages[i])}
			e := &pageEntry{}
			ref[k] = e
			mt.insert(k, e)
		}
		for k, e := range ref {
			if got, ok := mt.lookup(k); ok && got != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBBasics(t *testing.T) {
	tl := newTLB(4)
	k1 := mapKey{seg: 1, page: 10}
	if tl.lookup(k1) {
		t.Fatal("empty TLB hit")
	}
	tl.install(k1)
	if !tl.lookup(k1) {
		t.Fatal("installed entry missed")
	}
	tl.install(k1) // duplicate install must not consume a slot
	for p := int64(0); p < 3; p++ {
		tl.install(mapKey{seg: 2, page: p})
	}
	if !tl.lookup(k1) {
		t.Fatal("k1 evicted though TLB had room")
	}
	tl.install(mapKey{seg: 3, page: 0}) // now capacity exceeded: round-robin evicts
	hits := 0
	for _, k := range []mapKey{k1, {seg: 2, page: 0}, {seg: 2, page: 1}, {seg: 2, page: 2}, {seg: 3, page: 0}} {
		if tl.lookup(k) {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4 (one eviction)", hits)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tl := newTLB(8)
	k := mapKey{seg: 1, page: 1}
	tl.install(k)
	tl.invalidate(k)
	if tl.lookup(k) {
		t.Fatal("invalidated entry still hit")
	}
	tl.install(mapKey{seg: 1, page: 2})
	tl.install(mapKey{seg: 2, page: 2})
	tl.invalidateSegment(1)
	if tl.lookup(mapKey{seg: 1, page: 2}) {
		t.Fatal("segment flush missed an entry")
	}
	if !tl.lookup(mapKey{seg: 2, page: 2}) {
		t.Fatal("segment flush removed another segment's entry")
	}
}

// Overload stress: with more live pages than hash slots, mappings are
// displaced and dropped — and correctness must not depend on the hash
// table, because the segment maps are authoritative. Every page stays
// accessible without new faults.
func TestMappingTableOverloadStaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("70k-page stress")
	}
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: int64(70000) * 4096, StoreData: false})
	var clock sim.Clock
	k := New(mem, &clock, sim.DECstation5000(), Config{})
	seg, _ := k.CreateSegment("huge", 1)
	m := &popManager{k: k, next: 0}
	free, _ := k.CreateSegment("fast-free", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), free, 0, 0, 69000, 0, 0); err != nil {
		t.Fatal(err)
	}
	m.free = free
	k.SetSegmentManager(seg, m)
	const pages = 68000 // more than the 64K hash slots
	for p := int64(0); p < pages; p++ {
		if err := k.Access(seg, p, Write); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	st := k.Stats()
	if st.MissingFaults != pages {
		t.Fatalf("faults = %d, want %d", st.MissingFaults, pages)
	}
	// By pigeonhole the table displaced mappings; drops are expected.
	_, _, spills, _ := k.table.stats()
	if spills == 0 {
		t.Fatal("no hash displacement despite overload")
	}
	// Re-access everything: no page may fault again — dropped hash entries
	// only cost a slow walk, never a fault.
	for p := int64(0); p < pages; p++ {
		if err := k.Access(seg, p, Read); err != nil {
			t.Fatalf("re-access page %d: %v", p, err)
		}
	}
	if k.Stats().MissingFaults != pages {
		t.Fatalf("re-access faulted: %d faults", k.Stats().MissingFaults)
	}
}

// popManager serves faults by popping sequential slots from its free
// segment — O(1) per fault, for stress tests.
type popManager struct {
	k    *Kernel
	free *Segment
	next int64
}

func (m *popManager) ManagerName() string     { return "pop" }
func (m *popManager) Delivery() DeliveryMode  { return DeliverSameProcess }
func (m *popManager) SegmentDeleted(*Segment) {}
func (m *popManager) HandleFault(f Fault) error {
	src := m.next
	m.next++
	return m.k.MigratePages(AppCred, m.free, f.Seg, src, f.Page, 1, FlagRW, 0)
}

// overflowCopies counts valid overflow entries for key.
func overflowCopies(tbl *mappingTable, k mapKey) int {
	n := 0
	for i := range tbl.overflow[:tbl.ovLen] {
		if tbl.overflow[i].valid && tbl.overflow[i].key == k {
			n++
		}
	}
	return n
}

// TestMappingTableStaleDuplicatePurge is the deterministic regression test
// for the displacement sweep: when a key re-enters its direct-mapped slot
// while an out-of-date copy of it sits in the overflow area, the sweep
// must invalidate that stale copy — otherwise a later displacement of the
// slot would leave lookup finding the old entry pointer. The scenario is
// built on a minimal table (2-entry overflow) where collisions are
// guaranteed.
func TestMappingTableStaleDuplicatePurge(t *testing.T) {
	tbl := newMappingTableSized(2, 2)
	keys := collidingKeys(tbl, 2)
	a, b := keys[0], keys[1]
	e1, e2, eb := &pageEntry{}, &pageEntry{}, &pageEntry{}

	tbl.insert(a, e1) // a in slot
	tbl.insert(b, eb) // a displaced to overflow with entry e1
	if got := overflowCopies(tbl, a); got != 1 {
		t.Fatalf("overflow copies of a = %d, want 1", got)
	}

	// Re-insert a with a NEW entry: b is displaced, and the sweep must
	// purge the stale (a, e1) overflow copy in the same pass.
	tbl.insert(a, e2)
	if got := overflowCopies(tbl, a); got != 0 {
		t.Fatalf("stale overflow copy of a survived re-insert (%d copies)", got)
	}
	if e, ok := tbl.lookup(a); !ok || e != e2 {
		t.Fatalf("lookup(a) = %v,%v, want fresh entry", e, ok)
	}

	// Displace a again: lookup must keep returning e2 (from overflow), not
	// the long-gone e1.
	tbl.insert(b, eb)
	if e, ok := tbl.lookup(a); !ok || e != e2 {
		t.Fatalf("after displacement lookup(a) = %v,%v, want e2 from overflow", e, ok)
	}
	if got := overflowCopies(tbl, a); got != 1 {
		t.Fatalf("overflow copies of a = %d, want exactly 1", got)
	}

	// And the displaced occupant must never appear twice either.
	if got := overflowCopies(tbl, b); got > 1 {
		t.Fatalf("overflow copies of b = %d", got)
	}
}
