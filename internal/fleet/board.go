package fleet

import (
	"fmt"
	"hash/fnv"

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
// Internally the board is sharded for tenant scale: principals live in
// a flat slab, hashed over per-shard min-VT heaps that order only the
// *fleet-active* principals, so one episode costs O(charges·log
// active/shards + shards) instead of a scan over every principal the
// fleet has ever seen, and fleet-idle principals cost nothing (their
// forfeit-unused-credit clamp is applied lazily, which is observably
// identical because the system virtual time only moves forward; see
// DESIGN.md §12). The fold that advances the system virtual time can be
// batched: with Epoch e > 1 it runs every e-th episode, so the
// between-fold system virtual time is a stale *under*-estimate, leads
// are *over*-estimates, and denial stays conservative — a tenant's true
// fleet-wide lead can exceed the single-episode bound by at most the
// work charged within one epoch (TestBoardEpochLeadBound pins this).
// The default epoch of 1 reproduces per-episode reconciliation exactly.
//
// Every operation the board performs is commutative across principals
// (sums, set membership, a minimum), so results do not depend on map
// iteration order and the simulation stays deterministic.
type Board struct {
	byName map[string]uint32
	slab   []principal
	shards []boardShard
	order  []uint32
	sysVT  core.Work

	// devIdx interns reporting device names to bit positions in each
	// principal's active-device mask. A board supports at most 64
	// devices (boardMaxDevices); fleets are far smaller today and the
	// mask keeps the principal slab pointer-free per device.
	devIdx map[string]uint

	epoch     int // episodes per system-virtual-time fold
	sinceFold int

	// Episodes counts reconciliations, for tests. Folds counts the
	// system-virtual-time advances actually performed (== Episodes when
	// the epoch is 1).
	Episodes int64
	Folds    int64
}

// principal is one tenant's slot in the board slab: compact fixed-size
// state with no per-principal allocations at all — the set of devices
// the principal is active on is a bitmask over the board's interned
// device indexes.
type principal struct {
	name     string
	vt       core.Work
	activeOn uint64 // bitmask over Board.devIdx
	shard    uint32
	heapPos  int32 // position in its shard's heap, or boardIdle
}

// boardIdle marks a principal outside its shard heap (fleet-idle).
const boardIdle int32 = -1

// boardMaxDevices is the active-device mask width: the most reporting
// devices one board supports.
const boardMaxDevices = 64

// boardShard is one shard's min-VT heap over fleet-active principals,
// ordered by (vt, slab index) so the fold is reproducible.
type boardShard struct {
	heap []uint32
}

// DefaultBoardShards is the shard count NewBoard uses. Shards bound the
// per-fold cost (one heap head each) and spread heap maintenance;
// a handful suffices until populations reach the scale experiment's.
const DefaultBoardShards = 8

// NewBoard returns an empty fleet-wide virtual-time board with the
// default shard count and per-episode (epoch 1) reconciliation.
func NewBoard() *Board { return NewBoardWith(DefaultBoardShards, 1) }

// NewBoardWith returns a board with the given shard count and fold
// epoch. shards <= 0 takes DefaultBoardShards; epoch <= 0 takes 1
// (fold every episode — the exact per-episode semantics).
func NewBoardWith(shards, epoch int) *Board {
	if shards <= 0 {
		shards = DefaultBoardShards
	}
	if epoch <= 0 {
		epoch = 1
	}
	return &Board{
		byName: make(map[string]uint32),
		devIdx: make(map[string]uint),
		shards: make([]boardShard, shards),
		epoch:  epoch,
	}
}

// Grow pre-allocates principal capacity, so a known population (the
// scale experiment's) registers without a doubling cascade.
func (b *Board) Grow(n int) {
	if cap(b.slab) < n {
		slab := make([]principal, len(b.slab), n)
		copy(slab, b.slab)
		b.slab = slab
	}
}

// Epoch returns the fold epoch the board was built with.
func (b *Board) Epoch() int { return b.epoch }

// Principal implements core.FleetVT: it interns a tenant name,
// registering the principal at the fleet system virtual time if unseen,
// and returns its stable handle (the slab index).
func (b *Board) Principal(name string) core.PrincipalID {
	return core.PrincipalID(b.ensure(name))
}

// ReconcileEpisodeBatch implements core.FleetVT: one device episode as
// a slice of per-principal entries keyed by handles from Principal.
// Charges are folded first, then marked entries update the principal's
// activity on the reporting device (Active false clears it), matching
// the charge-then-(de)activate ordering the map form always had. Each
// entry's Lead is written in place after the fold. The batch is the
// caller's reusable buffer; the board does not retain it. The
// steady-state path allocates nothing.
func (b *Board) ReconcileEpisodeBatch(device string, batch []core.EpisodeEntry) {
	b.Episodes++
	dev := b.deviceBit(device)

	for i := range batch {
		if e := &batch[i]; e.Charge != 0 {
			b.charge(uint32(e.Principal), e.Charge)
		}
	}
	for i := range batch {
		e := &batch[i]
		if !e.Marked {
			continue
		}
		j := uint32(e.Principal)
		p := &b.slab[j]
		if e.Active {
			p.activeOn |= dev
			b.activate(j)
		} else {
			p.activeOn &^= dev
			if p.activeOn == 0 {
				b.deactivate(j)
			}
		}
	}

	// The fleet system virtual time is the oldest virtual time among
	// principals active anywhere; it only moves forward. With an epoch
	// above 1 the fold is batched: between folds the system virtual time
	// is a stale under-estimate, so every lead reported below is an
	// over-estimate and denial errs toward fairness.
	if b.sinceFold++; b.sinceFold >= b.epoch {
		b.sinceFold = 0
		b.fold()
	}

	for i := range batch {
		e := &batch[i]
		e.Lead = b.vtOf(uint32(e.Principal)) - b.sysVT
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

// fold advances the system virtual time to the minimum virtual time
// among fleet-active principals: the min over shard heap heads,
// O(shards) instead of O(principals).
func (b *Board) fold() {
	b.Folds++
	first := true
	var minVT core.Work
	for s := range b.shards {
		h := b.shards[s].heap
		if len(h) == 0 {
			continue
		}
		if vt := b.slab[h[0]].vt; first || vt < minVT {
			minVT = vt
			first = false
		}
	}
	if !first && minVT > b.sysVT {
		b.sysVT = minVT
	}
}

// charge advances a principal's virtual time. A fleet-idle principal
// first forfeits unused credit up to the system virtual time — the
// moment the old per-episode scan would have caught it up.
func (b *Board) charge(i uint32, c core.Work) {
	p := &b.slab[i]
	if p.heapPos == boardIdle && p.vt < b.sysVT {
		p.vt = b.sysVT
	}
	p.vt += c
	if p.heapPos != boardIdle && c > 0 {
		b.shards[p.shard].heapDown(b, int(p.heapPos))
	}
}

// vtOf returns a principal's virtual time with the idle forfeit applied
// lazily: the system virtual time only moves forward, so clamping at
// read time yields the same value the per-episode eager clamp would
// have written.
func (b *Board) vtOf(i uint32) core.Work {
	p := &b.slab[i]
	if p.heapPos == boardIdle && p.vt < b.sysVT {
		return b.sysVT
	}
	return p.vt
}

// activate pushes a principal into its shard heap if it is not there,
// forfeiting unused credit first (an idle stretch must not bank
// service).
func (b *Board) activate(i uint32) {
	p := &b.slab[i]
	if p.heapPos != boardIdle {
		return
	}
	if p.vt < b.sysVT {
		p.vt = b.sysVT
	}
	b.shards[p.shard].push(b, i)
}

// deactivate removes a fleet-idle principal from its shard heap. A
// heap slot that does not hold the principal it claims means the
// shard's accounting has been corrupted — the fairness ledger would
// silently rot — so it panics with the tenant's name, like the
// in-flight underflow panics on Fleet.
func (b *Board) deactivate(i uint32) {
	p := &b.slab[i]
	if p.heapPos == boardIdle {
		return
	}
	sh := &b.shards[p.shard]
	if int(p.heapPos) >= len(sh.heap) || sh.heap[p.heapPos] != i {
		panic(fmt.Sprintf("fleet: board shard %d accounting underflow for tenant %q",
			p.shard, p.name))
	}
	sh.delete(b, int(p.heapPos))
}

// ensure registers a principal, starting it at the fleet system virtual
// time — the same late-joiner rule as single-device DFQ — and returns
// its slab index.
func (b *Board) ensure(name string) uint32 {
	if i, ok := b.byName[name]; ok {
		return i
	}
	i := uint32(len(b.slab))
	h := fnv.New32a()
	h.Write([]byte(name))
	b.slab = append(b.slab, principal{
		name:    name,
		vt:      b.sysVT,
		shard:   h.Sum32() % uint32(len(b.shards)),
		heapPos: boardIdle,
	})
	b.byName[name] = i
	b.order = append(b.order, i)
	return i
}

// VirtualTime returns the principal's fleet-wide virtual time in
// normalized work, for tests and reports.
func (b *Board) VirtualTime(name string) core.Work {
	i, ok := b.byName[name]
	if !ok {
		return 0
	}
	return b.vtOf(i)
}

// SystemVirtualTime returns the fleet-wide system virtual time in
// normalized work.
func (b *Board) SystemVirtualTime() core.Work { return b.sysVT }

// Principals returns every principal the board has seen, in first-
// appearance order.
func (b *Board) Principals() []string {
	out := make([]string, len(b.order))
	for j, i := range b.order {
		out[j] = b.slab[i].name
	}
	return out
}

// ActiveLen returns the number of fleet-active principals, for tests.
func (b *Board) ActiveLen() int {
	n := 0
	for s := range b.shards {
		n += len(b.shards[s].heap)
	}
	return n
}

// The shard heaps: binary min-heaps of slab indexes ordered by
// (vt, slab index), positions written back through Board.slab.

func (b *Board) boardLess(x, y uint32) bool {
	px, py := &b.slab[x], &b.slab[y]
	if px.vt != py.vt {
		return px.vt < py.vt
	}
	return x < y
}

func (s *boardShard) push(b *Board, i uint32) {
	s.heap = append(s.heap, i)
	b.slab[i].heapPos = int32(len(s.heap) - 1)
	s.heapUp(b, len(s.heap)-1)
}

func (s *boardShard) delete(b *Board, pos int) {
	last := len(s.heap) - 1
	moved := s.heap[last]
	removed := s.heap[pos]
	s.heap[pos] = moved
	s.heap = s.heap[:last]
	b.slab[removed].heapPos = boardIdle
	if pos < last {
		b.slab[moved].heapPos = int32(pos)
		s.heapDown(b, pos)
		s.heapUp(b, int(b.slab[moved].heapPos))
	}
}

func (s *boardShard) heapUp(b *Board, pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !b.boardLess(s.heap[pos], s.heap[parent]) {
			return
		}
		s.swap(b, pos, parent)
		pos = parent
	}
}

func (s *boardShard) heapDown(b *Board, pos int) {
	n := len(s.heap)
	for {
		l := 2*pos + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && b.boardLess(s.heap[r], s.heap[l]) {
			min = r
		}
		if !b.boardLess(s.heap[min], s.heap[pos]) {
			return
		}
		s.swap(b, pos, min)
		pos = min
	}
}

func (s *boardShard) swap(b *Board, x, y int) {
	s.heap[x], s.heap[y] = s.heap[y], s.heap[x]
	b.slab[s.heap[x]].heapPos = int32(x)
	b.slab[s.heap[y]].heapPos = int32(y)
}
