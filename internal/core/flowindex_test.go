package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// stormLedgers drives the FlowIndex and the linear reference through one
// identical randomized engage/charge/disengage/idle storm and fails on
// the first observable divergence. The op mix mirrors a DFQ cycle:
// activate a working set, charge shares, advance the system virtual
// time, idle some flows out, churn a few registrations (exercising slot
// recycling on the index).
func stormLedgers(t *testing.T, tenants, cycles int, seed int64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	idx := NewFlowIndex()
	lin := &linearLedger{}
	idx.Grow(tenants)

	idxIDs := make([]FlowID, tenants)
	linIDs := make([]FlowID, tenants)
	for i := 0; i < tenants; i++ {
		idxIDs[i] = idx.Add()
		linIDs[i] = lin.Add()
	}

	working := 64
	if working > tenants {
		working = tenants
	}
	picks := make([]int, working)
	for c := 0; c < cycles; c++ {
		// Engage a working set.
		for k := range picks {
			i := rng.Intn(tenants)
			picks[k] = i
			idx.SetActive(idxIDs[i], true)
			lin.SetActive(linIDs[i], true)
		}
		// Charge weighted shares (identical integer deltas on both).
		for _, i := range picks {
			delta := PerWeight(WorkFor(sim.Duration(1+rng.Intn(500))*time.Microsecond, 1),
				float64(1+i%4))
			idx.Charge(idxIDs[i], delta)
			lin.Charge(linIDs[i], delta)
		}
		// Idle a few flows out; remove/re-add a couple (recycling).
		for k := 0; k < 8; k++ {
			i := rng.Intn(tenants)
			idx.SetActive(idxIDs[i], false)
			lin.SetActive(linIDs[i], false)
		}
		if c%7 == 0 {
			i := rng.Intn(tenants)
			idx.Remove(idxIDs[i])
			lin.Remove(linIDs[i])
			idxIDs[i] = idx.Add()
			linIDs[i] = lin.Add()
		}

		if a, b := idx.AdvanceSysVT(), lin.AdvanceSysVT(); a != b {
			t.Fatalf("cycle %d: sysVT diverged: indexed %d, linear %d", c, a, b)
		}
		if a, b := idx.ActiveLen(), lin.ActiveLen(); a != b {
			t.Fatalf("cycle %d: active population diverged: indexed %d, linear %d", c, a, b)
		}
		// Spot-check a sample of flows every cycle.
		for k := 0; k < 8; k++ {
			i := rng.Intn(tenants)
			compareFlow(t, c, i, idx, idxIDs[i], lin, linIDs[i])
		}
	}
	// Full sweep at the end.
	for i := 0; i < tenants; i++ {
		compareFlow(t, cycles, i, idx, idxIDs[i], lin, linIDs[i])
	}
	if a, b := idx.Len(), lin.Len(); a != b {
		t.Fatalf("final population diverged: indexed %d, linear %d", a, b)
	}
}

func compareFlow(t *testing.T, cycle, i int, idx *FlowIndex, idxID FlowID, lin *linearLedger, linID FlowID) {
	t.Helper()
	if a, b := idx.VT(idxID), lin.VT(linID); a != b {
		t.Fatalf("cycle %d flow %d: VT diverged: indexed %d, linear %d", cycle, i, a, b)
	}
	if a, b := idx.Lead(idxID), lin.Lead(linID); a != b {
		t.Fatalf("cycle %d flow %d: lead diverged: indexed %d, linear %d", cycle, i, a, b)
	}
	if a, b := idx.Active(idxID), lin.Active(linID); a != b {
		t.Fatalf("cycle %d flow %d: activity diverged: indexed %v, linear %v", cycle, i, a, b)
	}
}

// TestDifferentialDFQIndex pins that the FlowIndex (min-VT heap, lazy
// idle catch-up) is observably identical to the linear reference (the
// pre-index scan restated) under randomized storms at 10^2..10^4
// tenants: same virtual times, same leads, same system virtual time,
// same active populations, cycle by cycle. At table level the golden
// (internal/exp/testdata/quick.golden) pins the same equivalence: its
// DFQ rows predate the index.
func TestDifferentialDFQIndex(t *testing.T) {
	t.Parallel()
	for _, tenants := range []int{100, 1000, 10000} {
		cycles := 400
		if tenants >= 10000 {
			cycles = 120 // the linear ledger is O(tenants) per cycle
		}
		for rep := 0; rep < 3; rep++ {
			t.Run(fmt.Sprintf("tenants%d/rep%d", tenants, rep), func(t *testing.T) {
				t.Parallel()
				stormLedgers(t, tenants, cycles, sim.StreamSeed(1, "dfq-index-diff", tenants+rep))
			})
		}
	}
}

// TestFlowIndexStaleHandles pins the generation discipline: a handle
// whose slot has been recycled must be dead on every operation, and
// must not alias the slot's new occupant.
func TestFlowIndexStaleHandles(t *testing.T) {
	x := NewFlowIndex()
	old := x.Add()
	x.SetActive(old, true)
	x.Charge(old, 100)
	x.Remove(old)
	fresh := x.Add() // recycles the slot
	if x.Live(old) {
		t.Fatal("stale handle reports live after its slot was recycled")
	}
	if !x.Live(fresh) {
		t.Fatal("recycled slot's new handle must be live")
	}
	x.SetActive(old, true)
	x.Charge(old, 999)
	x.Remove(old)
	if x.Active(fresh) {
		t.Fatal("operations through a stale handle leaked onto the slot's new occupant")
	}
	if got := x.VT(fresh); got != 0 {
		t.Fatalf("stale Charge leaked onto recycled slot: VT = %d", got)
	}
	if x.Len() != 1 {
		t.Fatalf("population = %d after stale Remove, want 1", x.Len())
	}
}

// TestFlowIndexCorruptHeapPanics pins the heap's corruption tripwire:
// an active flow whose heap position does not hold it — out of range,
// or held by another flow — must panic naming the flow when it leaves
// the heap, on deactivation and on removal alike, rather than fault on
// the index or evict the flow that does hold the position.
func TestFlowIndexCorruptHeapPanics(t *testing.T) {
	for _, pos := range []int32{99, 0} {
		for _, op := range []string{"deactivate", "remove"} {
			t.Run(fmt.Sprintf("pos%d/%s", pos, op), func(t *testing.T) {
				x := NewFlowIndex()
				other, victim := x.Add(), x.Add()
				x.SetActive(other, true)
				x.SetActive(victim, true)
				x.Charge(victim, 100) // other holds the root, position 0
				x.slab[victim.idx].heapPos = pos

				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s of a flow its heap position does not hold must panic", op)
					}
					msg, ok := r.(string)
					if want := fmt.Sprintf("flow %d ", victim.idx); !ok || !strings.Contains(msg, want) {
						t.Fatalf("panic %v must name the flow (%q)", r, want)
					}
				}()
				if op == "remove" {
					x.Remove(victim)
				} else {
					x.SetActive(victim, false)
				}
			})
		}
	}
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

// FuzzDFQIndexOps drives the FlowIndex through an arbitrary encoded
// op-sequence (two bytes per op: opcode, argument) and checks the
// structural invariants after every step: heap ordering, heap-position
// consistency, slab-generation safety on recycling (stale handles stay
// in the pool and are replayed), and leak-free population accounting.
func FuzzDFQIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 3, 50, 4, 0, 1, 0, 0, 0, 2, 3, 5, 0})
	f.Add([]byte{0, 0, 2, 0, 3, 255, 3, 255, 4, 0, 2, 1, 4, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		x := NewFlowIndex()
		var handles []FlowID // includes stale handles on purpose
		live := 0
		for n := 0; n+1 < len(data) && n < 2048; n += 2 {
			op, arg := data[n]%6, int(data[n+1])
			switch op {
			case 0:
				handles = append(handles, x.Add())
				live++
			case 1: // remove (possibly through a stale handle)
				if len(handles) > 0 {
					id := handles[arg%len(handles)]
					if x.Live(id) {
						live--
					}
					x.Remove(id)
				}
			case 2, 3: // engage / disengage
				if len(handles) > 0 {
					x.SetActive(handles[arg%len(handles)], op == 2)
				}
			case 4:
				if len(handles) > 0 {
					x.Charge(handles[arg%len(handles)], Work(arg)*1000)
				}
			case 5:
				before := x.SysVT()
				if after := x.AdvanceSysVT(); after < before {
					t.Fatalf("sysVT moved backward: %d -> %d", before, after)
				}
			}
			x.checkInvariants()
			if x.Len() != live {
				t.Fatalf("population leak: index reports %d live flows, ops imply %d", x.Len(), live)
			}
			if x.Len() != x.ActiveLen()+x.IdleLen() {
				t.Fatalf("active/idle split leak: %d != %d + %d", x.Len(), x.ActiveLen(), x.IdleLen())
			}
		}
		// Every live flow must report a coherent ledger position.
		for _, id := range handles {
			if !x.Live(id) {
				continue
			}
			if x.VT(id) < x.SysVT() && !x.Active(id) {
				t.Fatalf("idle flow reads VT %d below sysVT %d", x.VT(id), x.SysVT())
			}
			if x.Lead(id) < 0 {
				t.Fatalf("negative lead %d", x.Lead(id))
			}
		}
	})
}
