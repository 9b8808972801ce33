// Package mmio models the memory-mapped register interface between user
// space and the accelerator.
//
// Each GPU channel exposes a channel register on its own page. While the
// page is Present, a store costs cost.Model.DirectWrite and goes straight
// to the device — the OS never sees it. When the page is made non-present
// (the scheduler "engages"), a store instead raises a page fault: after
// the trap, the registered FaultHandler runs as steps of the faulting
// thread's continuation, may delay it arbitrarily long (that is how
// schedulers delay requests), and when it delivers, the faulting store
// is single-stepped to the device and the page stays re-protected.
//
// This is the exact interposition point of the paper: protection cannot
// be bypassed by applications because it does not depend on library
// cooperation.
package mmio

import (
	"repro/internal/cost"
	"repro/internal/sim"
)

// Fault is one store in flight on a continuation: a faulting store
// between its trap and its single-stepped delivery, or a direct store
// pacing its DirectWrite. It carries the page, the stored value, and the
// continuation that carries the storing thread through the store.
// Records come from a pool a set of pages shares (NewPage) and go back
// to it once delivered.
type Fault struct {
	Page  *Page
	Value uint64
	// Cont is the storing thread's continuation. The handler sleeps and
	// waits on it; stopping it (the owner's kill) abandons the store
	// before it reaches the device.
	Cont *sim.Cont

	then func()

	// Steps and the Proc.Await start, bound on first use so that a
	// record costs only what its callers use of it.
	trapFn, deliverFn func()
	storeFn           func(*sim.Cont, func())
}

// FaultHandler is invoked after the trap of every store to a
// non-present page, as a step of f.Cont. It may sleep and wait on
// f.Cont, and it must call f.Deliver exactly once, inline or from a
// later step of f.Cont.
type FaultHandler func(f *Fault)

// Sink receives stores after they are allowed through (directly or via
// fault single-stepping). The GPU's channel doorbell is a Sink.
type Sink func(value uint64)

// Page is one device-register page that can be mapped into a task.
type Page struct {
	costs   cost.Model
	present bool
	handler FaultHandler
	sink    Sink

	// Deferred-store state for StoreAsync: values whose DirectWrite
	// propagation delay has not yet elapsed, delivered FIFO by deliverFn
	// (bound once at construction so the fast path does not allocate).
	pending   []uint64
	deliverFn func()

	// recs pools the page's store records, and inflight counts the ones
	// taken and not yet delivered.
	recs     *sim.Pool[Fault]
	inflight int

	// Counters for tests and experiments.
	DirectWrites int64
	Faults       int64
}

// NewPage returns a page that is initially present (direct access) and
// draws its store records from recs. A set of pages, such as a device's
// channel registers, shares one pool: a page made to replace another (a
// channel recreated on a reattach) starts with the records its
// predecessors returned, so a store in flight allocates nothing once
// the set has warmed.
func NewPage(costs cost.Model, sink Sink, recs *sim.Pool[Fault]) *Page {
	pg := &Page{costs: costs, present: true, sink: sink, recs: recs}
	pg.deliverFn = pg.deliver
	return pg
}

// Quiet reports whether no store is under way on the page: no record
// between its start and its delivery (an abandoned one counts for
// ever) and no deferred StoreAsync value. Only a quiet page may be
// Reset for another owner.
func (pg *Page) Quiet() bool { return pg.inflight == 0 && len(pg.pending) == 0 }

// Reset returns a quiet page to the state NewPage gives one (present,
// no handler, zero counters) for a new owner, keeping its sink, its
// record pool and its arrays.
func (pg *Page) Reset() {
	if !pg.Quiet() {
		panic("mmio: Reset of a page with a store under way")
	}
	pg.present, pg.handler = true, nil
	pg.DirectWrites, pg.Faults = 0, 0
}

// Present reports whether direct user-space access is currently enabled.
func (pg *Page) Present() bool { return pg.present }

// SetPresent flips the page mapping. Present=false means the next store
// faults into the handler. Called by the kernel (NEON), never by tasks.
func (pg *Page) SetPresent(present bool) { pg.present = present }

// SetHandler installs the kernel fault handler.
func (pg *Page) SetHandler(h FaultHandler) { pg.handler = h }

// Store performs a user-space store to the page from process p, paying
// the appropriate cost and faulting if the page is protected. It is
// the blocking form of StoreOn: p parks once, on its own continuation,
// until the store has reached the device.
func (pg *Page) Store(p *sim.Proc, value uint64) {
	f := pg.record(value)
	if f.storeFn == nil {
		f.storeFn = f.store
	}
	p.Await(f.storeFn)
}

// StoreOn is the store in continuation form. On a present page it
// counts a direct write, sleeps the DirectWrite on c, then delivers the
// value to the device and calls then, as a step of c: the step sits
// where the wake-up of a process's direct store sat. On a protected
// page it takes the fault path (FaultOn). Stopping c before the step
// abandons the store: no value reaches the device.
func (pg *Page) StoreOn(c *sim.Cont, value uint64, then func()) {
	pg.record(value).store(c, then)
}

// FaultOn is the fault path in continuation form: it charges the trap on
// c, runs the handler's steps on c, single-steps the store to the device
// and then calls then, as a step of c. Stopping c at any point before
// delivery abandons the fault: no store reaches the device.
//
// It takes the fault regardless of the page's current mapping. A store
// commits to the fault at the instant it observes the page non-present:
// the page may be remapped during the trap and the handler still runs.
// A caller that makes the same observation in engine context (a
// continuation machine whose fast-path store was refused) owes the same
// commitment and takes the fault one event hop later, on its lane; the
// scheduler may remap the page within that instant, exactly as it may
// during the trap, and either way the committed fault proceeds: trap,
// handler, then the single-stepped store.
func (pg *Page) FaultOn(c *sim.Cont, value uint64, then func()) {
	pg.record(value).fault(c, then)
}

// record takes a store record from the page's pool.
func (pg *Page) record(value uint64) *Fault {
	f, _ := pg.recs.Get()
	f.Page, f.Value = pg, value
	pg.inflight++
	return f
}

// store starts the record's store on c: direct if the page is present
// now, through the fault otherwise.
func (f *Fault) store(c *sim.Cont, then func()) {
	pg := f.Page
	if !pg.present {
		f.fault(c, then)
		return
	}
	pg.DirectWrites++
	f.Cont, f.then = c, then
	if f.deliverFn == nil {
		f.deliverFn = f.Deliver
	}
	c.Sleep(pg.costs.DirectWrite, f.deliverFn)
}

// fault starts the record's store on c through the fault path.
func (f *Fault) fault(c *sim.Cont, then func()) {
	f.Page.Faults++
	f.Cont, f.then = c, then
	if f.trapFn == nil {
		f.trapFn = f.trapped
	}
	c.Sleep(f.Page.costs.FaultTrap, f.trapFn)
}

// trapped is the step after the trap: hand the fault to the kernel.
func (f *Fault) trapped() {
	if h := f.Page.handler; h != nil {
		h(f)
		return
	}
	f.Deliver()
}

// Deliver single-steps the faulting instruction — the store now reaches
// the device — and runs the faulting thread's continuation. Protection
// state afterwards is whatever the handler chose (NEON re-protects by
// default by leaving present=false). The record returns to the pool
// first, so the continuation may store again at once. A direct
// store ends here too, after its DirectWrite.
func (f *Fault) Deliver() {
	pg, value, then := f.Page, f.Value, f.then
	f.Page, f.Cont, f.then = nil, nil, nil
	pg.recs.Put(f)
	pg.inflight--
	pg.sink(value)
	then()
}

// StoreAsync performs a direct store without blocking the calling
// process: the value reaches the sink after the same DirectWrite
// propagation delay as Store, but as an engine event rather than a
// process wakeup, saving the proc handoff. It reports false — and
// does nothing — when the page is protected: faulting stores take the
// trap and the handler on the caller's slow lane (FaultOn or Store).
//
// Only callers that do not act between the store and the next blocking
// point may use it (the store's side effects become visible at
// now+DirectWrite, after the caller has moved on); a submit-and-wait
// path qualifies.
func (pg *Page) StoreAsync(e *sim.Engine, value uint64) bool {
	if !pg.present {
		return false
	}
	pg.DirectWrites++
	pg.pending = append(pg.pending, value)
	e.After(pg.costs.DirectWrite, pg.deliverFn)
	return true
}

// deliver releases the oldest deferred store to the sink. Deliveries are
// FIFO: every deferred store schedules one deliver event a constant
// delay after issue, so event order matches issue order.
func (pg *Page) deliver() {
	v := pg.pending[0]
	n := copy(pg.pending, pg.pending[1:])
	pg.pending = pg.pending[:n]
	pg.sink(v)
}
