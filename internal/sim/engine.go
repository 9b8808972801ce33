// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an event queue ordered by
// (time, seq). Model code runs either as plain event
// callbacks or as processes (Proc): pooled coroutines that execute in
// strict handoff with the engine, so exactly one of them ever runs and
// every run of the same model is bit-for-bit identical.
//
// All of the NEON reproduction — the GPU device, the interposition kernel
// module, the schedulers, and the workloads — is built on this package.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since engine start.
type Time int64

// Duration re-exports time.Duration so model code can use the stdlib
// constants (time.Microsecond etc.) while staying in virtual time.
type Duration = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Add returns the time d after t, saturating at MaxTime.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if d >= 0 && s < t {
		return MaxTime
	}
	return s
}

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Microseconds reports t as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled callback, stored in the engine's event slab and
// addressed by slot index. Slots are recycled through a free list; gen
// distinguishes incarnations so a stale Timer handle can never cancel a
// later event that happens to reuse the same slot.
type event struct {
	t       Time
	seq     uint64
	fn      func()
	gen     uint32
	stopped bool  // cancelled by Timer.Stop; skipped (and recycled) at pop
	next    int32 // free-list link (and wheel-bucket link), -1 terminated
}

// noSlot is the nil value for slab indices.
const noSlot int32 = -1

// Event-queue geometry (see DESIGN.md §11): a hierarchical timing wheel
// for far events feeds a 4-ary index-free heap that orders everything
// within nearSpan of the wheel base exactly by (time, seq). Events
// farther out sit unordered in wheel buckets — level lv spans slots of
// width 1<<(nearBits+wheelBits*lv) ns — and are dumped or cascaded
// toward the heap as the base advances. An event is eligible for level
// lv only if it is within 63 slot-widths of the base, which guarantees a
// slot index (taken from the absolute time bits) can never collide with
// a slot one wheel revolution away. Events beyond the last level (~19h)
// overflow into the heap, which stays correct at any horizon.
const (
	wheelLevels = 5
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	nearBits    = 16
	nearSpan    = Time(1) << nearBits
)

// hnode is one heap entry: the ordering key (time, seq) inlined next to
// the slab slot so sift compares never touch the slab.
type hnode struct {
	t    Time
	seq  uint64
	slot int32
}

func hless(a, b hnode) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine. Engine methods
// must only be called from the engine's own goroutine: either from the
// caller of Run (before/after running), from event callbacks, or from
// code executing inside a Proc.
type Engine struct {
	now     Time
	seq     uint64
	pending int // live (uncancelled, unfired) events, kept for O(1) Pending

	// slab is the pooled event storage: Schedule allocates slots from the
	// free list and dispatch recycles them, so steady-state scheduling
	// does not allocate.
	slab []event
	free int32

	// Event queue. h4 is the 4-ary heap that totally orders the near
	// horizon; the wheel holds far events in unordered slot chains linked
	// through event.next. occupied has one bit per slot so the next
	// occupied slot is a TrailingZeros away. base is the wheel origin:
	// every event with t < base+nearSpan lives in the heap, and base only
	// ever moves forward, never past an occupied slot's start time.
	h4       []hnode
	buckets  [wheelLevels][wheelSlots]int32
	occupied [wheelLevels]uint64
	occSum   uint8 // bit per level with any occupied slot; 0 = wheel empty
	base     Time

	procs  int     // live (unfinished) procs, for leak detection
	inProc int     // >0 while process code may be on the stack (Proc.activate)
	idle   []*coro // finished procs' coroutines, reused by Spawn

	// stepping guards against re-entrant Run calls.
	running bool

	// panicked carries a panic raised (and recovered) inside a Proc out
	// to the engine, which re-throws it from Run.
	panicked any
	hasPanic bool
}

// NewEngine returns an engine with the clock at zero and no events.
func NewEngine() *Engine { return &Engine{free: noSlot} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes a slot from the free list (or grows the slab) and fills it.
// It returns the slot index; the slot's gen is preserved across reuse.
func (e *Engine) alloc(t Time, fn func()) int32 {
	var idx int32
	if e.free != noSlot {
		idx = e.free
		e.free = e.slab[idx].next
	} else {
		e.slab = append(e.slab, event{})
		idx = int32(len(e.slab) - 1)
	}
	ev := &e.slab[idx]
	ev.t = t
	ev.seq = e.seq
	ev.fn = fn
	ev.stopped = false
	ev.next = noSlot
	e.seq++
	return idx
}

// recycle returns a slot to the free list, bumping its generation so any
// outstanding Timer handle to the old incarnation goes stale.
func (e *Engine) recycle(idx int32) {
	ev := &e.slab[idx]
	ev.gen++
	ev.fn = nil // release the closure for GC
	ev.next = e.free
	e.free = idx
}

// Schedule runs fn at absolute time t (>= Now). It returns a Timer that
// can cancel the callback before it fires.
func (e *Engine) Schedule(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", t, e.now))
	}
	idx := e.alloc(t, fn)
	e.pending++
	e.insert(idx, t)
	return Timer{engine: e, slot: idx, gen: e.slab[idx].gen, when: t}
}

// After runs fn after duration d. Zero and negative durations both
// schedule fn at the current instant, but never inline: fn runs after
// the current event returns, and after every event already queued for
// this same instant — events at one time fire in insertion order, so a
// same-tick After from inside a running event always lands at the back
// of the current tick. Model code may rely on this FIFO-within-tick
// ordering (TestZeroAfterRunsAfterQueuedSameTimeEvents pins it).
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Timer is a handle to a scheduled callback. It is a small value: the
// engine, the event's slab slot, and the slot generation the handle was
// issued against. The zero Timer is valid and inert (Stop reports false).
type Timer struct {
	engine *Engine
	slot   int32
	gen    uint32
	when   Time
}

// Stop cancels the timer. It reports whether the callback had not yet
// fired (and was therefore prevented from running). A Timer whose event
// has fired — or whose engine has been Reset — holds a stale generation
// and is a harmless no-op.
func (t Timer) Stop() bool {
	e := t.engine
	if e == nil {
		return false
	}
	ev := &e.slab[t.slot]
	if ev.gen != t.gen || ev.stopped {
		return false
	}
	ev.stopped = true
	ev.fn = nil // release the closure for GC
	e.pending--
	return true
}

// When returns the virtual time at which the timer fires.
func (t Timer) When() Time { return t.when }

// insert places an allocated slot into the event queue.
//
// Events within nearSpan of the base go straight into the
// 4-ary heap (as do events in the past region t < base, which exists
// because the base can run ahead of the clock after a dump). Far events
// go to the first wheel level whose coarse slot distance from the base
// is at most 63 — at that level the distance is also at least 1 (a
// closer level would have fit otherwise), so a slot chain is always
// strictly ahead of the base's own slot and a cascade re-routing it can
// never loop. Events beyond the top level (~19h) overflow into the heap.
func (e *Engine) insert(idx int32, t Time) {
	if e.occSum == 0 {
		// Wheel empty: nothing pins the base, so drag it up to the clock
		// to keep near-future events on the heap fast path.
		if nb := e.now &^ (nearSpan - 1); nb > e.base {
			e.base = nb
		}
	}
	if t-e.base < nearSpan { // signed: also catches t < base
		e.hpush(hnode{t, e.slab[idx].seq, idx})
		return
	}
	tc, bc := uint64(t), uint64(e.base)
	for lv := 0; lv < wheelLevels; lv++ {
		shift := uint(nearBits + wheelBits*lv)
		if tc>>shift-bc>>shift <= wheelSlots-1 {
			slot := (tc >> shift) & (wheelSlots - 1)
			ev := &e.slab[idx]
			if e.occupied[lv]&(1<<slot) != 0 {
				ev.next = e.buckets[lv][slot]
			} else {
				ev.next = noSlot
				e.occupied[lv] |= 1 << slot
				e.occSum |= 1 << lv
			}
			e.buckets[lv][slot] = idx
			return
		}
	}
	e.hpush(hnode{t, e.slab[idx].seq, idx}) // beyond the top level
}

// hpush pushes onto the 4-ary heap (sift-up with a hole, no swaps).
func (e *Engine) hpush(n hnode) {
	h := append(e.h4, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !hless(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	e.h4 = h
}

// hpop removes and returns the heap minimum (sift-down with a hole).
func (e *Engine) hpop() hnode {
	h := e.h4
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.h4 = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if hless(h[j], h[m]) {
					m = j
				}
			}
			if !hless(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// wheelNext locates the occupied wheel slot with the earliest start
// time. Ties prefer the higher level: a coarse slot sharing its start
// with a finer one must cascade first, or dumping the finer slot would
// advance the base past the coarse slot's start and corrupt the wheel's
// circular-distance invariant.
func (e *Engine) wheelNext() (start Time, lv int, slot uint64) {
	bestLv := -1
	for sum := e.occSum; sum != 0; sum &= sum - 1 {
		l := bits.TrailingZeros8(sum)
		occ := e.occupied[l]
		shift := uint(nearBits + wheelBits*l)
		pos := int(e.base>>shift) & (wheelSlots - 1)
		d := Time(bits.TrailingZeros64(bits.RotateLeft64(occ, -pos)))
		st := (e.base>>shift + d) << shift
		if bestLv < 0 || st <= start {
			bestLv, start = l, st
			slot = uint64(e.base>>shift+d) & (wheelSlots - 1)
		}
	}
	return start, bestLv, slot
}

// advanceWheel consumes one wheel slot. A level-0 slot is dumped: the
// base advances past it and its whole chain joins the heap. A higher
// slot cascades: the base advances to its start and its chain is
// re-routed, landing in strictly lower levels or the heap.
func (e *Engine) advanceWheel(start Time, lv int, slot uint64) {
	head := e.buckets[lv][slot]
	e.occupied[lv] &^= 1 << slot
	if e.occupied[lv] == 0 {
		e.occSum &^= 1 << lv
	}
	if lv == 0 {
		if nb := start + nearSpan; nb > e.base {
			e.base = nb
		}
		for head != noSlot {
			ev := &e.slab[head]
			next := ev.next
			ev.next = noSlot
			e.hpush(hnode{ev.t, ev.seq, head})
			head = next
		}
		return
	}
	if start > e.base {
		e.base = start
	}
	for head != noSlot {
		next := e.slab[head].next
		e.slab[head].next = noSlot
		e.insert(head, e.slab[head].t)
		head = next
	}
}

// ready brings the global-minimum pending event to the queue front,
// skipping and recycling cancelled events. That means advancing the wheel until the minimum provably sits at the heap top:
// the heap is authoritative only once its top is earlier than the start
// of every occupied wheel slot (a slot's start lower-bounds everything
// chained in it). Ties advance the wheel so (time, seq) order is decided
// in the heap. ready reports false when no live events remain.
func (e *Engine) ready() bool {
	for {
		for len(e.h4) > 0 && e.slab[e.h4[0].slot].stopped {
			e.recycle(e.hpop().slot)
		}
		if e.occSum == 0 {
			return len(e.h4) > 0
		}
		start, lv, slot := e.wheelNext()
		if len(e.h4) > 0 && e.h4[0].t < start {
			return true
		}
		e.advanceWheel(start, lv, slot)
	}
}

// pop removes and returns the slot of the earliest (time, seq) event, or
// noSlot if the queue is empty. Cancelled events are skipped and recycled.
func (e *Engine) pop() int32 {
	if !e.ready() {
		return noSlot
	}
	return e.hpop().slot
}

// peek returns the time of the earliest pending event. ok is false if the
// queue is empty.
func (e *Engine) peek() (t Time, ok bool) {
	if !e.ready() {
		return 0, false
	}
	return e.h4[0].t, true
}

// Step executes the single next event. It reports false if the queue is
// empty.
func (e *Engine) Step() bool {
	idx := e.pop()
	if idx == noSlot {
		return false
	}
	e.dispatch(idx)
	return true
}

// stepUpTo executes the single next event if its time is <= limit. It
// reports false when the queue is empty or the next event lies beyond
// the limit. Fusing the bound check into the pop keeps RunUntil at one
// queue-front computation per event instead of a peek/pop pair.
func (e *Engine) stepUpTo(limit Time) bool {
	if !e.ready() || e.h4[0].t > limit {
		return false
	}
	e.dispatch(e.hpop().slot)
	return true
}

// dispatch consumes one popped slot: advance the clock, recycle, run.
func (e *Engine) dispatch(idx int32) {
	ev := &e.slab[idx]
	if ev.t < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.t
	fn := ev.fn
	e.pending--
	e.recycle(idx) // consumed; Timer.Stop now reports false
	fn()
	e.rethrow()
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.enter()
	defer e.leave()
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.enter()
	defer e.leave()
	for e.stepUpTo(t) {
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Reset returns the engine to its initial state: clock at zero, no
// events. It lets a harness reuse one engine allocation across scenarios
// instead of constructing a fresh engine per run; any outstanding Timers
// from the previous run are dropped (their handles go stale: every slab
// slot's generation is bumped, so Stop on an old Timer reports false and
// can never cancel an event of the new run). Reset refuses to run while
// procs are live — their coroutines are parked awaiting engine wakeups
// and would be stranded forever — so models must finish (or Kill) every
// proc before the engine can be reused. The idle coroutine pool
// survives Reset.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset during Run")
	}
	if e.procs != 0 {
		panic(fmt.Sprintf("sim: Reset with %d live procs", e.procs))
	}
	// Rebuild the free list over the whole slab, invalidating every
	// outstanding handle generation, but keep the slab capacity: an engine
	// reused across scenarios reaches steady state with zero allocations.
	e.h4 = e.h4[:0]
	e.occupied = [wheelLevels]uint64{}
	e.occSum = 0
	e.base = 0
	e.free = noSlot
	for i := len(e.slab) - 1; i >= 0; i-- {
		ev := &e.slab[i]
		ev.gen++
		ev.fn = nil
		ev.next = e.free
		e.free = int32(i)
	}
	e.pending = 0
	e.now = 0
	e.seq = 0
	e.hasPanic = false
	e.panicked = nil
}

// NextAfterNow reports whether the queue holds no event at the current
// instant: every pending event, if any, is strictly later. Trampoline
// callers (a timer that only schedules its real work at the back of the
// current tick) use it to fold the deferred event into an inline call
// when the tick is already empty — the two are indistinguishable, since
// nothing can run between the trampoline and its deferred event, and
// anything either schedules lands after both in (time, seq) order.
func (e *Engine) NextAfterNow() bool {
	t, ok := e.peek()
	return !ok || t > e.now
}

// InProcContext reports whether process code may currently be on the
// stack (a Proc activation is in progress). Trampoline folding via
// NextAfterNow is only sound from plain event context: a running
// process's continuation is same-instant pending work the event queue
// cannot see, so callers in proc context must schedule rather than
// fold.
func (e *Engine) InProcContext() bool { return e.inProc > 0 }

// Pending returns the number of queued (uncancelled) events. It is O(1):
// the engine maintains a live counter across Schedule, Stop, dispatch,
// and Reset instead of scanning the queue.
func (e *Engine) Pending() int { return e.pending }

// LiveProcs returns the number of spawned processes that have not yet
// finished. Useful for leak detection in tests.
func (e *Engine) LiveProcs() int { return e.procs }

func (e *Engine) enter() {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
}

func (e *Engine) leave() { e.running = false }

func (e *Engine) rethrow() {
	if e.hasPanic {
		p := e.panicked
		e.hasPanic = false
		e.panicked = nil
		panic(p)
	}
}
