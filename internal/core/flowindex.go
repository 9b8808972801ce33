package core

import "fmt"

// FlowID is a generation-counted handle to one flow's slot in a
// FlowIndex. Handles are values (two words), safe to copy and to hold
// across Remove: a handle whose slot has been recycled carries a stale
// generation and every FlowIndex operation on it is rejected — the same
// use-after-free discipline as the sim engine's pooled Timers.
type FlowID struct {
	idx uint32
	gen uint32
}

// NoFlow is the zero FlowID; it never names a live flow (slot 0 starts
// at generation 1).
var NoFlow = FlowID{}

// flowSlot is one flow's compact per-tenant state: a fixed-size record
// in the index's flat slab. No per-flow maps, no boxed pointers — at
// ~1M tenants the slab is a few tens of megabytes of contiguous memory
// and an idle tenant costs nothing per cycle.
type flowSlot struct {
	// vt is the flow's virtual time in weighted normalized Work. For
	// idle flows the stored value may lag the system virtual time; reads
	// clamp lazily (see VT), which is observably identical to the eager
	// per-cycle catch-up of the linear ledger because sysVT is monotone.
	vt Work
	// gen is the slot's generation, bumped on every recycle.
	gen uint32
	// heapPos is the slot's position in the active min-VT heap, or
	// flowIdle / flowFree when the slot is not active.
	heapPos int32
}

// Sentinel heapPos values for slots outside the active heap.
const (
	flowIdle int32 = -1
	flowFree int32 = -2
)

// FlowIndex is the indexed fair-queueing state store: per-flow virtual
// times in a flat slab addressed by generation-counted FlowIDs, with a
// 4-ary min-heap ordering the *active* flows by (vt, slot) so the
// system-virtual-time advance — the min over active flows that every
// DFQ engagement episode and board reconciliation needs — is O(1) to
// read and O(log active) to maintain, independent of how many idle
// tenants the index holds. Idle flows live outside the heap entirely
// and are caught up to the system virtual time lazily, so a million
// inactive tenants add zero per-cycle cost (MQFQ's flow indexing,
// applied to the paper's engagement ledger).
//
// All ordering is by (vt, slot index), so identical operation sequences
// produce identical heaps and identical minima on every run — the
// determinism contract the differential tests pin against the linear
// ledger.
type FlowIndex struct {
	slab   []flowSlot
	free   []uint32 // recycled slot indexes, LIFO
	heap   []uint32 // active slots, 4-ary min-heap by (vt, idx)
	idle   int      // live flows currently outside the heap
	sysVT  Work
	grows  int64 // structural allocation events, see StructuralAllocs
	nextID uint32
}

// NewFlowIndex returns an empty index, as is the zero FlowIndex. The
// slab grows on demand; pre-size with Grow when the population is known
// up front.
func NewFlowIndex() *FlowIndex { return &FlowIndex{} }

// Grow pre-allocates slab and heap capacity for n flows, so a known
// population (the scale experiment's 10⁵–10⁶ tenants) is two
// allocations instead of a doubling cascade.
func (x *FlowIndex) Grow(n int) {
	if cap(x.slab) < n {
		slab := make([]flowSlot, len(x.slab), n)
		copy(slab, x.slab)
		x.slab = slab
		x.grows++
	}
	if cap(x.heap) < n {
		heap := make([]uint32, len(x.heap), n)
		copy(heap, x.heap)
		x.heap = heap
		x.grows++
	}
}

// Add registers a new flow, idle, with its virtual time at the system
// virtual time — the late-joiner rule of every ledger in this package.
func (x *FlowIndex) Add() FlowID {
	var i uint32
	if n := len(x.free); n > 0 {
		i = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		i = uint32(len(x.slab))
		if len(x.slab) == cap(x.slab) {
			x.grows++
		}
		x.slab = append(x.slab, flowSlot{gen: 1})
		x.grows++ // one registered flow = one structural allocation
	}
	s := &x.slab[i]
	s.vt = x.sysVT
	s.heapPos = flowIdle
	x.idle++
	return FlowID{idx: i, gen: s.gen}
}

// Remove frees the flow's slot and bumps its generation, so stale
// handles are dead. Removing an already-removed flow is a no-op.
func (x *FlowIndex) Remove(id FlowID) {
	s := x.slot(id)
	if s == nil {
		return
	}
	if s.heapPos >= 0 {
		x.heapDelete(id.idx)
	} else {
		x.idle--
	}
	s.gen++
	s.heapPos = flowFree
	x.free = append(x.free, id.idx)
}

// Live reports whether the handle still names a live flow.
func (x *FlowIndex) Live(id FlowID) bool { return x.slot(id) != nil }

// SetActive moves the flow between the active heap and the idle side
// structure. Activating an idle flow first forfeits any unused credit
// (vt catches up to the system virtual time); deactivating removes it
// from the heap so it stops participating in the minimum. Both are
// O(log active); a no-op transition costs nothing.
func (x *FlowIndex) SetActive(id FlowID, active bool) {
	s := x.slot(id)
	if s == nil {
		return
	}
	if active == (s.heapPos >= 0) {
		return
	}
	if active {
		if s.vt < x.sysVT {
			s.vt = x.sysVT
		}
		x.idle--
		x.heapPush(id.idx)
	} else {
		x.heapDelete(id.idx)
		x.idle++
	}
}

// Active reports whether the flow is in the active heap.
func (x *FlowIndex) Active(id FlowID) bool {
	s := x.slot(id)
	return s != nil && s.heapPos >= 0
}

// Charge advances the flow's virtual time by delta (already weighted
// and normalized by the caller) and restores heap order — O(log
// active) for active flows, O(1) for idle ones.
func (x *FlowIndex) Charge(id FlowID, delta Work) {
	s := x.slot(id)
	if s == nil || delta == 0 {
		return
	}
	if s.heapPos < 0 && s.vt < x.sysVT {
		// An idle flow is caught up before new usage lands on it, exactly
		// when the per-cycle clamp of the linear ledger would have done it.
		s.vt = x.sysVT
	}
	s.vt += delta
	if s.heapPos >= 0 && delta > 0 {
		x.heapDown(int(s.heapPos))
	}
}

// VT returns the flow's virtual time. Idle flows report the lazily
// clamped value max(stored, sysVT): the linear ledger catches idle
// flows up every cycle, and because the system virtual time only moves
// forward, clamping at read time yields the identical number.
func (x *FlowIndex) VT(id FlowID) Work {
	s := x.slot(id)
	if s == nil {
		return 0
	}
	if s.heapPos < 0 && s.vt < x.sysVT {
		return x.sysVT
	}
	return s.vt
}

// Lead returns the flow's virtual-time lead over the system virtual
// time — the quantity the DFQ denial rule compares against the
// free-run horizon. Never negative.
func (x *FlowIndex) Lead(id FlowID) Work {
	if lead := x.VT(id) - x.sysVT; lead > 0 {
		return lead
	}
	return 0
}

// MinActiveVT returns the smallest virtual time among active flows —
// an O(1) read of the heap root.
func (x *FlowIndex) MinActiveVT() (Work, bool) {
	if len(x.heap) == 0 {
		return 0, false
	}
	return x.slab[x.heap[0]].vt, true
}

// AdvanceSysVT folds the active minimum into the system virtual time
// (which only moves forward) and returns the new value. With no active
// flows the system virtual time holds still, as in the linear ledger.
func (x *FlowIndex) AdvanceSysVT() Work {
	if min, ok := x.MinActiveVT(); ok && min > x.sysVT {
		x.sysVT = min
	}
	return x.sysVT
}

// SysVT returns the system virtual time.
func (x *FlowIndex) SysVT() Work { return x.sysVT }

// ActiveLen and IdleLen report the population split; Len is the total
// live flow count.
func (x *FlowIndex) ActiveLen() int { return len(x.heap) }
func (x *FlowIndex) IdleLen() int   { return x.idle }
func (x *FlowIndex) Len() int       { return len(x.heap) + x.idle }

// StructuralAllocs counts the allocation events the index has performed
// by design: one per registered flow plus one per slab or heap growth.
// Unlike runtime allocation counters it is deterministic and
// machine-independent, which is what lets the scale experiment print an
// allocs-per-request column into a byte-exact golden table.
func (x *FlowIndex) StructuralAllocs() int64 { return x.grows }

// slot resolves a handle, nil if stale or out of range.
func (x *FlowIndex) slot(id FlowID) *flowSlot {
	if int(id.idx) >= len(x.slab) {
		return nil
	}
	s := &x.slab[id.idx]
	if s.gen != id.gen || s.heapPos == flowFree {
		return nil
	}
	return s
}

// checkInvariants panics if the heap ordering or the population
// accounting is broken; the fuzz target calls it after every op.
func (x *FlowIndex) checkInvariants() {
	for i := 1; i < len(x.heap); i++ {
		parent := (i - 1) / 4
		if x.flowLess(x.heap[i], x.heap[parent]) {
			panic(fmt.Sprintf("core: flow heap order violated at %d", i))
		}
	}
	live := 0
	for i := range x.slab {
		s := &x.slab[i]
		switch {
		case s.heapPos == flowFree:
		case s.heapPos == flowIdle:
			live++
		default:
			live++
			if int(s.heapPos) >= len(x.heap) || x.heap[s.heapPos] != uint32(i) {
				panic(fmt.Sprintf("core: flow %d heap position %d is inconsistent", i, s.heapPos))
			}
		}
	}
	if live != x.Len() || len(x.slab)-live != len(x.free) {
		panic(fmt.Sprintf("core: flow accounting leak: %d live, Len %d, %d slab, %d free",
			live, x.Len(), len(x.slab), len(x.free)))
	}
}

// flowLess is the heap order: by virtual time, ties to the lower slot
// index so runs are reproducible.
func (x *FlowIndex) flowLess(a, b uint32) bool {
	sa, sb := &x.slab[a], &x.slab[b]
	if sa.vt != sb.vt {
		return sa.vt < sb.vt
	}
	return a < b
}

// The 4-ary heap (same shape as the sim engine's overflow heap: fewer
// levels than a binary heap, and the four-child scan stays in one cache
// line of slot indexes).

func (x *FlowIndex) heapPush(i uint32) {
	if len(x.heap) == cap(x.heap) {
		x.grows++
	}
	x.heap = append(x.heap, i)
	x.slab[i].heapPos = int32(len(x.heap) - 1)
	x.heapUp(len(x.heap) - 1)
}

// heapDelete takes slot i out of the heap. A heap position that does
// not hold the slot claiming it means the index has been corrupted, so
// it panics naming the flow rather than evict whichever flow does hold
// that position.
func (x *FlowIndex) heapDelete(i uint32) {
	pos := int(x.slab[i].heapPos)
	if pos >= len(x.heap) || x.heap[pos] != i {
		panic(fmt.Sprintf("core: flow %d claims heap position %d, which does not hold it", i, pos))
	}
	last := len(x.heap) - 1
	moved := x.heap[last]
	x.heap[pos] = moved
	x.heap = x.heap[:last]
	x.slab[i].heapPos = flowIdle
	if pos < last {
		x.slab[moved].heapPos = int32(pos)
		x.heapDown(pos)
		x.heapUp(int(x.slab[moved].heapPos))
	}
}

func (x *FlowIndex) heapUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 4
		if !x.flowLess(x.heap[pos], x.heap[parent]) {
			return
		}
		x.heapSwap(pos, parent)
		pos = parent
	}
}

func (x *FlowIndex) heapDown(pos int) {
	n := len(x.heap)
	for {
		first := 4*pos + 1
		if first >= n {
			return
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if x.flowLess(x.heap[c], x.heap[min]) {
				min = c
			}
		}
		if !x.flowLess(x.heap[min], x.heap[pos]) {
			return
		}
		x.heapSwap(pos, min)
		pos = min
	}
}

func (x *FlowIndex) heapSwap(a, b int) {
	x.heap[a], x.heap[b] = x.heap[b], x.heap[a]
	x.slab[x.heap[a]].heapPos = int32(a)
	x.slab[x.heap[b]].heapPos = int32(b)
}
