// Package mmio models the memory-mapped register interface between user
// space and the accelerator.
//
// Each GPU channel exposes a channel register on its own page. While the
// page is Present, a store costs cost.Model.DirectWrite and goes straight
// to the device — the OS never sees it. When the page is made non-present
// (the scheduler "engages"), a store instead raises a page fault: the
// registered FaultHandler runs in the faulting process's context, may
// block the process arbitrarily long (that is how schedulers delay
// requests), and on return the faulting store is single-stepped to the
// device and the page re-protected.
//
// This is the exact interposition point of the paper: protection cannot
// be bypassed by applications because it does not depend on library
// cooperation.
package mmio

import (
	"repro/internal/cost"
	"repro/internal/sim"
)

// Write describes a store to a channel register.
type Write struct {
	Page  *Page
	Value uint64
}

// FaultHandler is invoked, in the faulting process's context, for every
// store to a non-present page. It may call blocking Proc methods. After
// it returns the store is delivered to the device.
type FaultHandler func(p *sim.Proc, w Write)

// Sink receives stores after they are allowed through (directly or via
// fault single-stepping). The GPU's channel doorbell is a Sink.
type Sink func(value uint64)

// Page is one device-register page that can be mapped into a task.
type Page struct {
	name    string
	costs   cost.Model
	present bool
	handler FaultHandler
	sink    Sink

	// Deferred-store state for StoreAsync: values whose DirectWrite
	// propagation delay has not yet elapsed, delivered FIFO by deliverFn
	// (bound once at construction so the fast path does not allocate).
	pending   []uint64
	deliverFn func()

	// Counters for tests and experiments.
	DirectWrites int64
	Faults       int64
}

// NewPage returns a page that is initially present (direct access).
func NewPage(name string, costs cost.Model, sink Sink) *Page {
	pg := &Page{name: name, costs: costs, present: true, sink: sink}
	pg.deliverFn = pg.deliver
	return pg
}

// Name returns the page's diagnostic name.
func (pg *Page) Name() string { return pg.name }

// Present reports whether direct user-space access is currently enabled.
func (pg *Page) Present() bool { return pg.present }

// SetPresent flips the page mapping. Present=false means the next store
// faults into the handler. Called by the kernel (NEON), never by tasks.
func (pg *Page) SetPresent(present bool) { pg.present = present }

// SetHandler installs the kernel fault handler.
func (pg *Page) SetHandler(h FaultHandler) { pg.handler = h }

// Store performs a user-space store to the page from process p, paying
// the appropriate cost and faulting if the page is protected.
func (pg *Page) Store(p *sim.Proc, value uint64) {
	if pg.present {
		pg.DirectWrites++
		p.Sleep(pg.costs.DirectWrite)
		pg.sink(value)
		return
	}
	pg.StoreFaulting(p, value)
}

// StoreFaulting delivers a store through the fault path regardless of
// the page's current mapping. Store commits a store to the fault at the
// instant it observes the page non-present — the page may be remapped
// during the trap sleep and the handler still runs. A caller that makes
// the same observation in engine context (a continuation machine whose
// fast-path store was refused) owes the same commitment, but takes the
// fault one event hop later, on its slow-lane process; the scheduler may
// remap the page within that same instant, exactly as it may during
// Store's trap sleep, and either way the committed fault proceeds:
// trap, handler, then the single-stepped store.
func (pg *Page) StoreFaulting(p *sim.Proc, value uint64) {
	pg.Faults++
	p.Sleep(pg.costs.FaultTrap)
	if pg.handler != nil {
		pg.handler(p, Write{Page: pg, Value: value})
	}
	// Single-step the faulting instruction: the store now reaches the
	// device. Protection state afterwards is whatever the handler chose
	// (NEON re-protects by default by leaving present=false).
	pg.sink(value)
}

// StoreAsync performs a direct store without blocking the calling
// process: the value reaches the sink after the same DirectWrite
// propagation delay as Store, but as an engine event rather than a
// process wakeup, saving the proc handoff. It reports false — and
// does nothing — when the page is protected: faulting stores must run
// the handler in process context, so the caller falls back to Store.
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
