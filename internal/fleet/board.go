package fleet

import (
	"fmt"

	"repro/internal/core"
)

// Board is the fleet-wide virtual-time exchange (it implements
// core.FleetVT). Per-device Disengaged Fair Queueing instances report
// the usage they charge at every engagement episode; the board folds
// the charges into one virtual time per principal (tenant name),
// advances the fleet-wide system virtual time — the oldest virtual time
// among principals active on any device — and hands back each
// principal's lead over it. The per-device schedulers deny free runs on
// fleet-wide leads, which is what makes fairness hold across devices: a
// tenant drawing service from three devices accrues virtual time three
// times as fast and is denied everywhere until the others catch up.
//
// All quantities are in weighted normalized core.Work: each device
// converts its observed device time at its own class speed and divides
// by the consuming tenant's fair-share weight before reporting, so on a
// heterogeneous fleet a ledger entry means the same amount of
// *entitlement consumed* no matter which generation of card provided
// the service or how large the tenant's contractual share is — a
// weight-4 tenant's ledger advances at a quarter rate and it is denied
// a quarter as often, fleet-wide. (Under the raw-charge ablation the
// devices report unscaled device time and the board — unknowingly —
// compares unlike units; that is the failure mode the hetero experiment
// demonstrates.)
//
// The virtual times live in one core.FlowIndex, the ledger every
// per-device DFQ instance keeps too: a principal is a flow, active while
// it is active on any device, so the fold over fleet-active principals
// is a heap-head read and fleet-idle principals cost nothing (their
// forfeit-unused-credit clamp is applied lazily; see DESIGN.md §12).
// The board itself keeps only what the index does not know: the
// tenant-name interning and the set of devices each principal is
// active on.
//
// Every operation the board performs is commutative across principals
// (sums, set membership, a minimum), so results do not depend on map
// iteration order and the simulation stays deterministic.
type Board struct {
	ledger core.FlowIndex
	byName map[string]uint32
	slab   []principal

	// devIdx interns reporting device names to bit positions in each
	// principal's active-device mask. A board supports at most
	// boardMaxDevices devices; the mask keeps the principal slab
	// pointer-free per device.
	devIdx map[string]uint

	// Episodes counts reconciliations, for tests.
	Episodes int64
}

// principal is one tenant's slot in the board slab: its flow in the
// ledger and the set of devices it is active on, a bitmask over the
// board's interned device indexes. No per-principal allocations.
type principal struct {
	name     string
	flow     core.FlowID
	activeOn uint64 // bitmask over Board.devIdx
}

// boardMaxDevices is the active-device mask width: the most reporting
// devices one board supports, and so the widest DFQ fleet.
const boardMaxDevices = 64

// NewBoard returns an empty fleet-wide virtual-time board.
func NewBoard() *Board {
	return &Board{
		byName: make(map[string]uint32),
		devIdx: make(map[string]uint),
	}
}

// Grow pre-allocates principal capacity, so a known population (the
// scale experiment's) registers without a doubling cascade. A board
// that has no principal yet sizes its name map for n too.
func (b *Board) Grow(n int) {
	b.ledger.Grow(n)
	if cap(b.slab) < n {
		slab := make([]principal, len(b.slab), n)
		copy(slab, b.slab)
		b.slab = slab
	}
	if len(b.byName) == 0 {
		b.byName = make(map[string]uint32, n)
	}
}

// Principal implements core.FleetVT: it interns a tenant name,
// registering the principal at the fleet system virtual time if unseen
// (the same late-joiner rule as single-device DFQ), and returns its
// stable handle (the slab index).
func (b *Board) Principal(name string) core.PrincipalID {
	if i, ok := b.byName[name]; ok {
		return core.PrincipalID(i)
	}
	i := uint32(len(b.slab))
	b.slab = append(b.slab, principal{name: name, flow: b.ledger.Add()})
	b.byName[name] = i
	return core.PrincipalID(i)
}

// ReconcileEpisodeBatch implements core.FleetVT: one device episode as
// a slice of entries keyed by handles from Principal, at most one entry
// per principal. Charges land first, then marked entries update the
// principal's activity on the reporting device (Active false clears
// it): a principal joins the ledger's active set with its first device
// and leaves it with its last. Then the system virtual time advances
// once, and each entry's Lead is written in place. The batch is the
// caller's reusable buffer; the board does not retain it. The
// steady-state path allocates nothing.
func (b *Board) ReconcileEpisodeBatch(device string, batch []core.EpisodeEntry) {
	b.Episodes++
	dev := b.deviceBit(device)

	for i := range batch {
		if e := &batch[i]; e.Charge != 0 {
			b.ledger.Charge(b.slab[e.Principal].flow, e.Charge)
		}
	}
	for i := range batch {
		e := &batch[i]
		if !e.Marked {
			continue
		}
		p := &b.slab[e.Principal]
		switch {
		case e.Active:
			p.activeOn |= dev
			b.ledger.SetActive(p.flow, true)
		case p.activeOn&dev != 0:
			if p.activeOn &^= dev; p.activeOn == 0 {
				b.deactivate(p)
			}
		}
	}
	b.ledger.AdvanceSysVT()
	for i := range batch {
		e := &batch[i]
		e.Lead = b.ledger.Lead(b.slab[e.Principal].flow)
	}
}

// deviceBit interns a reporting device name to its mask bit.
func (b *Board) deviceBit(device string) uint64 {
	i, ok := b.devIdx[device]
	if !ok {
		i = uint(len(b.devIdx))
		if i >= boardMaxDevices {
			panic(fmt.Sprintf("fleet: board supports at most %d reporting devices", boardMaxDevices))
		}
		b.devIdx[device] = i
	}
	return 1 << i
}

// deactivate takes a principal that has just left its last device out
// of the ledger's active set. A ledger that no longer holds it active
// means the board's accounting has been corrupted — the fairness
// ledger would silently rot — so it panics with the tenant's name,
// like the in-flight underflow panics on Fleet.
func (b *Board) deactivate(p *principal) {
	if !b.ledger.Active(p.flow) {
		panic(fmt.Sprintf("fleet: board accounting underflow for tenant %q", p.name))
	}
	b.ledger.SetActive(p.flow, false)
}

// VirtualTime returns the principal's fleet-wide virtual time in
// normalized work, for tests and reports.
func (b *Board) VirtualTime(name string) core.Work {
	i, ok := b.byName[name]
	if !ok {
		return 0
	}
	return b.ledger.VT(b.slab[i].flow)
}

// SystemVirtualTime returns the fleet-wide system virtual time in
// normalized work.
func (b *Board) SystemVirtualTime() core.Work { return b.ledger.SysVT() }

// Principals returns every principal the board has seen, in first-
// appearance order.
func (b *Board) Principals() []string {
	out := make([]string, len(b.slab))
	for i := range b.slab {
		out[i] = b.slab[i].name
	}
	return out
}
