package neon

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// This file is the virtual-context multiplexing front-end: a per-device
// table of logical contexts that lets the kernel host far more clients
// than the device's fixed pool of hardware contexts (48 on the paper's
// GTX670). A logical context (VContext) is bound to a task for its
// lifetime and lazily attached to a hardware context on first use. When
// the pool is exhausted, an idle logical context is detached LRU-style
// — its hardware slot (context plus channels) is gracefully released
// back to the device without disturbing the task's device memory — and
// the next attach of that logical context recreates the hardware state,
// paying the setup syscalls plus the paper's ContextSwitch cost. On the
// host the recreation reuses released objects: the device's contexts
// and channels, the kernel's channel states and the context's own
// attach record, so a reattach allocates nothing (DESIGN.md §13). A
// logical context has one acquire or eager open in flight at a time.
//
// Attach order under exhaustion is FIFO: a blocked attach enqueues a
// waiter, and freed slots (request completions that leave a context
// idle, or task exits) are granted to waiters in arrival order. Waiters
// wait on their task's gate, so the machinery adds no simulation
// events unless it is actually exercised — kernels whose clients all
// fit in the hardware pool run an event sequence byte-identical to the
// un-multiplexed stack.
//
// The attach path exists once, in continuation form (OpenVirtualOn,
// AcquireOn): each step is scheduled where a parked process's wake-up
// would sit, so a continuation and a process attach on the same
// timeline. The blocking forms (OpenVirtual, Acquire) are Proc.Await
// wrappers over it.

// MuxStats are the kernel's virtual-context multiplexing counters.
type MuxStats struct {
	// Opens counts logical contexts created via OpenVirtual.
	Opens int64
	// Attaches counts hardware attaches (first attach and reattach).
	Attaches int64
	// Reattaches counts attaches that recreated previously evicted
	// hardware state (each pays cost.ContextSwitch on top of setup).
	Reattaches int64
	// Evictions counts LRU detaches of idle logical contexts.
	Evictions int64
	// AttachWaits counts attaches that had to queue for a free slot.
	AttachWaits int64
	// MaxAttached is the high-water mark of concurrently attached
	// logical contexts; it can never exceed the device's MaxContexts.
	MaxAttached int
	// Waiting and Reserved are gauges read at the snapshot: attaches
	// queued for a hardware slot, and slots granted to queued attaches
	// but not yet consumed. Both return to zero once no attach waits.
	Waiting  int
	Reserved int
}

// muxState is the kernel's multiplexing state, nil until the first
// OpenVirtual call so non-multiplexed kernels pay nothing.
type muxState struct {
	attached []*VContext  // attach order (unordered set; LRU is by lastUsed)
	waiters  []*muxWaiter // FIFO attach queue
	reserved int          // slots granted to waiters not yet consumed
	clock    uint64       // logical LRU clock, bumped per use
	stats    MuxStats

	// evictable counts the attached contexts that are evictable right
	// now (VContext.counted), kept at every transition of evictable(),
	// so a pump or an attach with nothing to evict costs O(1).
	evictable int
}

// muxWaiter is one queued attach. The waiting attach waits on its
// task's gate until granted (or the task dies).
type muxWaiter struct {
	vc      *VContext
	granted bool
}

// VContext is a logical (virtual) GPU context: the handle user-level
// clients hold instead of a raw *gpu.Context. It is created once per
// client and survives detach/reattach cycles transparently.
type VContext struct {
	k     *Kernel
	task  *Task
	label string
	kinds []gpu.Kind

	hw    *gpu.Context    // nil while detached
	chans []*ChannelState // hardware channels while attached, one per kind

	pins         int    // active users; a pinned context is not evictable
	lastUsed     uint64 // mux clock at last Acquire
	everAttached bool   // reattaches (everAttached && attach) pay ContextSwitch
	attaching    bool   // an attach is in flight
	closed       bool   // task exited
	counted      bool   // counted in muxState.evictable
	waiter       *muxWaiter

	reattaches int64

	// op is the context's attach record, busy (opBusy) while its one
	// acquire or eager open is in flight. chans0 is the first backing
	// array of chans.
	op     attachOp
	opBusy bool
	chans0 [1]*ChannelState
}

// OpenVirtual creates a logical context for the task with one channel
// per kind: the blocking form of OpenVirtualOn.
func (k *Kernel) OpenVirtual(p *sim.Proc, t *Task, label string, kinds ...gpu.Kind) (*VContext, error) {
	return sim.AwaitResult(p, func(c *sim.Cont, then func(*VContext, error)) {
		k.OpenVirtualOn(c, t, label, kinds, then)
	})
}

// OpenVirtualOn creates a logical context for the task with one channel
// per kind and hands it to then, as a step of c. If a hardware slot is
// free it attaches eagerly — paying exactly the setup syscalls a raw
// context creation would, so populations within the hardware pool are
// indistinguishable from the un-multiplexed stack. Otherwise the
// logical context starts detached, then runs inline, and the first
// acquire attaches it (queueing for a slot if needed).
func (k *Kernel) OpenVirtualOn(c *sim.Cont, t *Task, label string, kinds []gpu.Kind, then func(*VContext, error)) {
	if !t.Alive {
		then(nil, gpu.ErrContextDead)
		return
	}
	if k.mux == nil {
		k.mux = &muxState{}
		k.dev.CompletionObserver = k.muxRetired
	}
	vc := k.vcSlab.New()
	vc.k, vc.task, vc.label, vc.kinds = k, t, label, kinds
	vc.chans = vc.chans0[:0]
	t.vctxs = append(t.vctxs, vc)
	k.mux.stats.Opens++
	if k.muxFree() > 0 {
		a := k.attachOp(vc, c)
		a.opened = then
		a.attach()
		return
	}
	then(vc, nil)
}

// MuxStatus returns a snapshot of the multiplexing counters and gauges
// (zero value when the kernel has never multiplexed).
func (k *Kernel) MuxStatus() MuxStats {
	if k.mux == nil {
		return MuxStats{}
	}
	st := k.mux.stats
	st.Waiting, st.Reserved = len(k.mux.waiters), k.mux.reserved
	return st
}

// muxFree returns the number of hardware context slots available to the
// mux: pool size minus live contexts minus slots already granted to
// queued waiters.
func (k *Kernel) muxFree() int {
	return k.dev.Config().MaxContexts - k.dev.ContextCount() - k.mux.reserved
}

// Task returns the owning task.
func (vc *VContext) Task() *Task { return vc.task }

// Kinds returns the channel kinds the logical context was opened with,
// in order. The slice is the one OpenVirtualOn was given.
func (vc *VContext) Kinds() []gpu.Kind { return vc.kinds }

// Attached reports whether the logical context currently holds a
// hardware context.
func (vc *VContext) Attached() bool { return vc.hw != nil }

// Reattaches counts how many times this logical context was re-attached
// after an eviction.
func (vc *VContext) Reattaches() int64 { return vc.reattaches }

// ChannelIf returns the attached hardware channel of the given kind
// without attaching or pinning; nil while detached.
func (vc *VContext) ChannelIf(kind gpu.Kind) *gpu.Channel {
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch
		}
	}
	return nil
}

// Acquire returns the hardware channel of the given kind, attaching the
// logical context first if necessary (which may park p waiting for a
// slot): the blocking form of AcquireOn. The context is pinned —
// ineligible for eviction — until the matching Release. Returns an
// error only when the task is dead or a protection policy denies the
// attach.
func (vc *VContext) Acquire(p *sim.Proc, kind gpu.Kind) (*gpu.Channel, error) {
	if ch, err, ok := vc.acquireNow(kind); ok {
		return ch, err
	}
	return sim.AwaitResult(p, func(c *sim.Cont, then func(*gpu.Channel, error)) {
		vc.AcquireOn(c, kind, then)
	})
}

// AcquireOn is Acquire in continuation form: it hands the hardware
// channel of the given kind (or the error) to then, pinned until the
// matching Release. When the logical context is attached, then runs
// inline, with the LRU bump AcquireIf would charge; otherwise the
// attach runs as steps of c — the FIFO slot wait, the setup syscalls,
// the rollback, and the reattach's ContextSwitch — and then runs as the
// last of them. The context must have no other acquire or eager open
// in flight (Kernel.attachOp panics). Stopping c abandons the attach
// between steps; the task's exit then cleans up what it left
// (muxTaskExited).
func (vc *VContext) AcquireOn(c *sim.Cont, kind gpu.Kind, then func(*gpu.Channel, error)) {
	if ch, err, ok := vc.acquireNow(kind); ok {
		then(ch, err)
		return
	}
	a := vc.k.attachOp(vc, c)
	a.kind, a.acquired = kind, then
	a.attach()
}

// acquireNow is the acquire that needs no step: it reports done when
// the context is dead (an error) or attached (pinned, with the LRU bump,
// and the channel of the given kind), and not done when an attach must
// run.
func (vc *VContext) acquireNow(kind gpu.Kind) (ch *gpu.Channel, err error, done bool) {
	if vc.closed || !vc.task.Alive {
		return nil, gpu.ErrContextDead, true
	}
	if vc.hw == nil {
		return nil, nil, false
	}
	vc.pin()
	ch, err = vc.channel(kind)
	return ch, err, true
}

// pin takes one pin on an attached context and bumps the LRU clock. A
// pinned context is not evictable.
func (vc *VContext) pin() {
	m := vc.k.mux
	vc.pins++
	m.clock++
	vc.lastUsed = m.clock
	if vc.counted {
		vc.counted = false
		m.evictable--
	}
}

// channel returns the attached channel of the given kind to a caller
// that holds a pin; without one, it drops the pin and reports the
// context dead.
func (vc *VContext) channel(kind gpu.Kind) (*gpu.Channel, error) {
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch, nil
		}
	}
	vc.unpin()
	return nil, gpu.ErrContextDead
}

// AcquireIf is the non-blocking form of Acquire for the engine-driven
// submission fast path: if the logical context is currently attached and
// usable it pins it — bumping the LRU clock exactly as Acquire would —
// and returns the hardware channel of the given kind. It never attaches
// and never waits; it reports false when the context is detached,
// mid-attach, or dead, and callers fall back to Acquire or AcquireOn on
// their slow lane.
func (vc *VContext) AcquireIf(kind gpu.Kind) (*gpu.Channel, bool) {
	ch, ok := vc.Peek(kind)
	if ok {
		vc.pin()
	}
	return ch, ok
}

// Peek is the side-effect-free form of AcquireIf: it reports whether the
// logical context is currently attached and usable and returns the
// hardware channel of the given kind, without pinning and — critically —
// without bumping the LRU clock. Refusal checks (is the fast path even
// available? is the register engaged?) must use Peek, not AcquireIf:
// a submission that ends up on the blocking path must charge exactly one
// LRU use, the Acquire it retries with, or the mux's eviction order
// drifts from the blocking-only timeline. The channel pointer is only
// valid within the current engine instant.
func (vc *VContext) Peek(kind gpu.Kind) (*gpu.Channel, bool) {
	if vc.closed || !vc.task.Alive || vc.hw == nil || vc.attaching {
		return nil, false
	}
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch, true
		}
	}
	return nil, false
}

// Release unpins the logical context after an Acquire. Channel pointers
// obtained from Acquire must not be stored across a Release: the next
// attach may produce fresh ones.
func (vc *VContext) Release() { vc.unpin() }

// attachOp is one acquire or eager open in flight on a continuation:
// the attach (FIFO slot wait, setup syscalls, rollback, reattach
// ContextSwitch) and the hand-back to the caller. Each logical context
// owns one record, and its one step and one wait predicate are bound
// once and dispatch on the phase, so an attach allocates no closure; an
// op whose continuation is stopped abandons its record.
type attachOp struct {
	k     *Kernel
	vc    *VContext
	c     *sim.Cont
	kind  gpu.Kind
	phase attachPhase

	// The caller's continuation: acquired for AcquireOn, opened for
	// OpenVirtualOn's eager attach.
	acquired func(*gpu.Channel, error)
	opened   func(*VContext, error)

	w     muxWaiter       // the queued attach, while waiting for a slot
	ctx   *gpu.Context    // the hardware context being built
	chans []*ChannelState // its channels so far

	stepFn  func()
	readyFn func() bool
}

// attachPhase is where an attach waits or sleeps: what its next step
// does.
type attachPhase uint8

const (
	phSlot    attachPhase = iota // waiting in the FIFO for a hardware slot
	phContext                    // sleeping the context syscall
	phChannel                    // sleeping a channel syscall
	phSwitch                     // sleeping the reattach's ContextSwitch
)

// attachOp takes the context's attach record. A second acquire or
// eager open while the record is busy is a caller's bug, one lane
// racing another for the same context, so it panics naming the task
// and the context.
func (k *Kernel) attachOp(vc *VContext, c *sim.Cont) *attachOp {
	if vc.opBusy {
		panic(fmt.Sprintf("neon: task %q acquired logical context %q while its attach is in flight", vc.task.Name, vc.label))
	}
	vc.opBusy = true
	a := &vc.op
	if a.k == nil {
		a.k, a.vc = k, vc
		a.stepFn, a.readyFn = a.step, a.ready
	}
	a.c = c
	return a
}

// step runs the attach's next step once its wait or sleep is over.
func (a *attachOp) step() {
	switch a.phase {
	case phSlot:
		a.granted()
	case phContext:
		a.contextCreated(a.k.createContext(a.vc.task, a.vc.label))
	case phChannel:
		a.channelCreated(a.k.createChannel(a.vc.task, a.ctx, a.vc.kinds[len(a.chans)]))
	case phSwitch:
		a.finish(nil)
	}
}

// ready is the slot wait's predicate: a slot was granted, or the
// context is dead.
func (a *attachOp) ready() bool {
	vc := a.vc
	return vc.closed || !vc.task.Alive || a.w.granted
}

// attach binds the logical context to a hardware context, creating the
// context and its channels through the setup syscalls. It waits while
// the pool is exhausted and nothing is evictable. On success the
// context is pinned once and, if this is a reattach, the paper's
// ContextSwitch cost has been charged. Whatever the outcome, finish
// clears the attaching flag and broadcasts the task's gate.
func (a *attachOp) attach() {
	a.vc.attaching = true
	a.slot()
}

// slot is the head of the attach loop: find a free hardware slot,
// evicting or queueing for one, then sleep the context syscall.
func (a *attachOp) slot() {
	k, vc := a.k, a.vc
	if vc.closed || !vc.task.Alive {
		a.finish(gpu.ErrContextDead)
		return
	}
	if k.muxFree() <= 0 && !k.muxEvictLRU() {
		m := k.mux
		a.w = muxWaiter{vc: vc}
		vc.waiter = &a.w
		m.waiters = append(m.waiters, &a.w)
		m.stats.AttachWaits++
		a.phase = phSlot
		a.c.WaitFor(&vc.task.gate, a.readyFn, a.stepFn)
		return
	}
	a.sleepSyscall(phContext)
}

// sleepSyscall sleeps the trap and driver work of the next setup
// syscall; its effect is the step after.
func (a *attachOp) sleepSyscall(ph attachPhase) {
	a.phase = ph
	a.c.Sleep(a.k.setupCost(), a.stepFn)
}

// granted follows the slot wait: take the granted slot, or give it up
// if the task died.
func (a *attachOp) granted() {
	k, vc := a.k, a.vc
	vc.waiter = nil
	if !a.w.granted {
		k.muxRemoveWaiter(&a.w)
		a.finish(gpu.ErrContextDead)
		return
	}
	k.mux.reserved--
	if vc.closed || !vc.task.Alive {
		k.muxPump() // hand the slot on
		a.finish(gpu.ErrContextDead)
		return
	}
	a.sleepSyscall(phContext)
}

// contextCreated follows the context syscall.
func (a *attachOp) contextCreated(ctx *gpu.Context, err error) {
	if err == gpu.ErrNoContexts {
		// A non-multiplexed client took the slot during the syscall
		// sleep; go around again.
		a.slot()
		return
	}
	if err != nil {
		a.k.muxPump()
		a.finish(err)
		return
	}
	a.ctx = ctx
	a.chans = a.vc.chans[:0] // the detached context's array, empty
	a.nextChannel()
}

// nextChannel sleeps the next channel syscall, or binds the context
// once every kind has a channel.
func (a *attachOp) nextChannel() {
	if len(a.chans) < len(a.vc.kinds) {
		a.sleepSyscall(phChannel)
		return
	}
	a.bind()
}

// channelCreated follows a channel syscall; a failure rolls the partial
// attach back and releases the slot.
func (a *attachOp) channelCreated(cs *ChannelState, err error) {
	if err == nil {
		a.chans = append(a.chans, cs)
		a.nextChannel()
		return
	}
	k, vc, ctx := a.k, a.vc, a.ctx
	for _, cs := range a.chans {
		delete(k.byPage, cs.Ch.Reg)
		vc.task.removeChannel(cs)
	}
	vc.task.removeContext(ctx)
	if !ctx.Dead() {
		if err := k.dev.ReleaseContext(ctx); err != nil {
			panic("neon: mux rollback of busy context: " + err.Error())
		}
	}
	k.muxPump()
	a.finish(err)
}

// bind installs the built hardware state and pins it; a reattach then
// sleeps the ContextSwitch.
func (a *attachOp) bind() {
	vc := a.vc
	m := a.k.mux
	vc.hw = a.ctx
	vc.chans = a.chans
	for _, cs := range vc.chans {
		cs.vc = vc
	}
	m.attached = append(m.attached, vc)
	if n := len(m.attached); n > m.stats.MaxAttached {
		m.stats.MaxAttached = n
	}
	m.stats.Attaches++
	vc.pin()
	if vc.everAttached {
		vc.reattaches++
		m.stats.Reattaches++
		a.phase = phSwitch
		a.c.Sleep(a.k.costs.ContextSwitch, a.stepFn)
		return
	}
	vc.everAttached = true
	a.finish(nil)
}

// finish ends the attach: the attaching flag clears and the task's gate
// is broadcast.
func (a *attachOp) finish(err error) {
	vc := a.vc
	vc.attaching = false
	a.k.muxNote(vc)
	vc.task.gate.Broadcast()
	a.done(err)
}

// done frees the record and hands the outcome to the caller's
// continuation: the channel for an acquire, the context for an open.
func (a *attachOp) done(err error) {
	vc, kind, acquired, opened := a.vc, a.kind, a.acquired, a.opened
	a.c, a.acquired, a.opened, a.ctx, a.chans = nil, nil, nil, nil, nil
	a.w = muxWaiter{}
	vc.opBusy = false
	if opened != nil {
		if err != nil {
			opened(nil, err)
			return
		}
		vc.unpin()
		opened(vc, nil)
		return
	}
	if err != nil {
		acquired(nil, err)
		return
	}
	acquired(vc.channel(kind))
}

// unpin drops one pin. An unpin without a pin is a broken pin count,
// which could let the mux evict a context a submission still uses, so
// it panics naming the task.
func (vc *VContext) unpin() {
	if vc.pins <= 0 {
		panic(fmt.Sprintf("neon: task %q unpinned logical context %q without a pin", vc.task.Name, vc.label))
	}
	vc.pins--
	if vc.pins == 0 {
		vc.k.muxNote(vc)
		if len(vc.k.mux.waiters) > 0 {
			vc.k.muxPump()
		}
	}
}

// evictable reports whether the attached logical context can be
// detached right now: unpinned, every channel quiescent, none sampling.
func (vc *VContext) evictable() bool {
	if vc.hw == nil || vc.pins > 0 || vc.attaching {
		return false
	}
	for _, cs := range vc.chans {
		if cs.sampling || !cs.Ch.Idle() {
			return false
		}
	}
	return true
}

// muxNote re-reads evictable() after a transition that may change it
// and keeps the evictable count. Every such transition calls it (pin
// does its own O(1) part): an unpin to zero, an attach's finish, a
// sampling run's start and end, a completion that leaves a channel
// idle, and a detach or exit. A context that turns evictable is only
// counted here; whoever pumps does so on its own.
func (k *Kernel) muxNote(vc *VContext) {
	if e := vc.evictable(); e != vc.counted {
		vc.counted = e
		if e {
			k.mux.evictable++
		} else {
			k.mux.evictable--
		}
	}
}

// muxRetired follows every request's retirement on the device: a
// channel left idle may have made its logical context evictable, and
// the freed work may let a waiter in.
func (k *Kernel) muxRetired(ch *gpu.Channel) {
	if ch.Idle() {
		if cs := k.byPage[ch.Reg]; cs != nil && cs.vc != nil {
			k.muxNote(cs.vc)
		}
	}
	k.muxPump()
}

// muxEvictLRU detaches the least-recently-used evictable logical
// context, freeing its hardware slot. Returns false when nothing is
// evictable, at once when the count says so. The scan's pick is
// unique: every attached context was pinned at least once, at its
// bind, and each pin draws a new clock value.
func (k *Kernel) muxEvictLRU() bool {
	m := k.mux
	if m.evictable == 0 {
		return false
	}
	var victim *VContext
	for _, vc := range m.attached {
		if !vc.evictable() {
			continue
		}
		if victim == nil || vc.lastUsed < victim.lastUsed {
			victim = vc
		}
	}
	if victim == nil {
		return false
	}
	k.muxDetach(victim)
	return true
}

// muxDetach gracefully releases an idle logical context's hardware
// state. The task keeps its identity, accounting history, and device
// memory; only the context and channels go back to the pool, where the
// next attach reuses them (gpu.Device.ReleaseContext), and the channel
// states go to the kernel's, unless a drain is running: its scan may
// still read a detached channel state (drain.scan), so that one must
// stay dead, as a fresh attach would leave it.
func (k *Kernel) muxDetach(vc *VContext) {
	m := k.mux
	for _, cs := range vc.chans {
		vc.task.retiredDone += cs.Ch.Completions
		delete(k.byPage, cs.Ch.Reg)
		vc.task.removeChannel(cs)
	}
	vc.task.removeContext(vc.hw)
	if err := k.dev.ReleaseContext(vc.hw); err != nil {
		panic("neon: mux detach of busy context: " + err.Error())
	}
	for i, x := range m.attached {
		if x == vc {
			m.attached = append(m.attached[:i], m.attached[i+1:]...)
			break
		}
	}
	if k.drain.c == nil {
		k.csFree = append(k.csFree, vc.chans...)
	}
	clear(vc.chans)
	vc.hw = nil
	vc.chans = vc.chans[:0]
	k.muxNote(vc)
	m.stats.Evictions++
}

// muxPump grants freed hardware slots to queued attach waiters in FIFO
// order, evicting idle LRU contexts as needed. Called after request
// completions, task exits, and unpins; a kernel with no waiters returns
// immediately.
func (k *Kernel) muxPump() {
	m := k.mux
	for len(m.waiters) > 0 {
		if m.evictable == 0 && k.muxFree() <= 0 {
			return // nothing to give: O(1)
		}
		w := m.waiters[0]
		if w.vc.closed || !w.vc.task.Alive {
			m.waiters = m.waiters[1:]
			continue
		}
		if k.muxFree() <= 0 && !k.muxEvictLRU() {
			return
		}
		m.waiters = m.waiters[1:]
		m.reserved++
		w.granted = true
		w.vc.task.gate.Broadcast()
	}
}

// muxRemoveWaiter drops a cancelled waiter from the queue, if present.
func (k *Kernel) muxRemoveWaiter(w *muxWaiter) {
	m := k.mux
	for i, x := range m.waiters {
		if x == w {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return
		}
	}
}

// muxTaskExited unlinks a dead task's logical contexts (their hardware
// contexts were already destroyed by the device exit protocol) and
// recycles any slots or grants the task held.
func (k *Kernel) muxTaskExited(t *Task) {
	m := k.mux
	if m == nil {
		return
	}
	for _, vc := range t.vctxs {
		vc.closed = true
		// An attach stopped with its task's threads never finishes, so
		// the exit clears its flag; one still running finishes dead.
		vc.attaching = false
		if w := vc.waiter; w != nil {
			if w.granted {
				// Granted but never consumed; the slot goes back.
				m.reserved--
				w.granted = false
			} else {
				k.muxRemoveWaiter(w)
			}
			vc.waiter = nil
		}
		if vc.hw != nil {
			for i, x := range m.attached {
				if x == vc {
					m.attached = append(m.attached[:i], m.attached[i+1:]...)
					break
				}
			}
			clear(vc.chans)
			vc.hw = nil
			vc.chans = nil
			k.muxNote(vc)
		}
	}
	t.vctxs = nil
	k.muxPump()
}
