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
// record, so a reattach allocates nothing (DESIGN.md §13). A logical
// context has one acquire or eager open in flight at a time, and it is
// that attach's record.
//
// Attach order under exhaustion is FIFO: a blocked attach enqueues its
// context, and freed slots (request completions that leave a context
// idle, or task exits) are granted to queued contexts in arrival order.
// Queued contexts wait on their task's gate, so the machinery adds no
// simulation events unless it is actually exercised — kernels whose
// clients all fit in the hardware pool run an event sequence
// byte-identical to the un-multiplexed stack.
//
// The attach path exists once, in continuation form (OpenVirtualOn,
// AcquireOn): each step is scheduled where a parked process's wake-up
// would sit, so a continuation and a process attach on the same
// timeline. The blocking form OpenVirtual is a Proc.Await wrapper over
// it.

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
	attached []*VContext // attach order (unordered set; LRU is by lastUsed)
	waiters  []*VContext // FIFO attach queue
	reserved int         // slots granted to queued contexts not yet consumed
	clock    uint64      // logical LRU clock, bumped per use
	stats    MuxStats

	// evictable counts the attached contexts that are evictable right
	// now (VContext.counted), kept at every transition of evictable(),
	// so a pump or an attach with nothing to evict costs O(1).
	evictable int
}

// VContext is a logical (virtual) GPU context: the handle user-level
// clients hold instead of a raw *gpu.Context. It is created once per
// client and survives detach/reattach cycles transparently.
//
// It is also the record of its one acquire or eager open in flight
// (opBusy): the attach's continuation, phase and caller, and the
// hardware context being built, whose channels collect in chans. Its
// one step and one wait predicate are bound once and dispatch on the
// phase, so an attach allocates no closure; an attach whose
// continuation is stopped abandons the record to its task's exit.
type VContext struct {
	k     *Kernel
	task  *Task
	label string
	kinds []gpu.Kind

	hw    *gpu.Context    // nil while detached
	chans []*ChannelState // one per kind while attached; those built so far while attaching

	pins     int    // active users; a pinned context is not evictable
	lastUsed uint64 // mux clock at the last pin

	c    *sim.Cont    // the attach's continuation
	kind gpu.Kind     // the kind an acquire asked for
	ctx  *gpu.Context // the hardware context being built

	// The caller's continuation: acquired for AcquireOn, opened for
	// OpenVirtualOn's eager attach.
	acquired func(*gpu.Channel, error)
	opened   func(*VContext, error)

	stepFn  func()
	readyFn func() bool

	chans0 [1]*ChannelState // the first backing array of chans

	phase        attachPhase
	opBusy       bool // an acquire or eager open is in flight: the context is attaching
	queued       bool // in the FIFO attach queue
	granted      bool // granted a slot it has not consumed yet
	everAttached bool // reattaches (everAttached && attach) pay ContextSwitch
	counted      bool // counted in muxState.evictable
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
		vc.begin(c)
		vc.opened = then
		vc.slot()
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
// queued contexts.
func (k *Kernel) muxFree() int {
	return k.dev.Config().MaxContexts - k.dev.ContextCount() - k.mux.reserved
}

// Kinds returns the channel kinds the logical context was opened with,
// in order. The slice is the one OpenVirtualOn was given.
func (vc *VContext) Kinds() []gpu.Kind { return vc.kinds }

// Attached reports whether the logical context currently holds a
// hardware context.
func (vc *VContext) Attached() bool { return vc.hw != nil }

// AcquireOn hands the hardware channel of the given kind (or the error)
// to then, pinned — ineligible for eviction — until the matching
// Release. When the logical context is attached, then runs inline, with
// the LRU bump AcquireIf would charge; otherwise the attach runs as
// steps of c — the FIFO slot wait, the setup syscalls, the rollback,
// and the reattach's ContextSwitch — and then runs as the last of them.
// It hands out an error only when the task is dead or a protection
// policy denies the attach. The context must have no other acquire or
// eager open in flight (begin panics). Stopping c abandons the attach
// between steps; the task's exit then cleans up what it left
// (muxTaskExited).
func (vc *VContext) AcquireOn(c *sim.Cont, kind gpu.Kind, then func(*gpu.Channel, error)) {
	if ch, err, ok := vc.acquireNow(kind); ok {
		then(ch, err)
		return
	}
	vc.begin(c)
	vc.kind, vc.acquired = kind, then
	vc.slot()
}

// acquireNow is the acquire that needs no step: it reports done when
// the context is dead (an error) or attached (pinned, with the LRU bump,
// and the channel of the given kind), and not done when an attach must
// run.
func (vc *VContext) acquireNow(kind gpu.Kind) (ch *gpu.Channel, err error, done bool) {
	if !vc.task.Alive {
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

// AcquireIf is the non-blocking form of AcquireOn for the engine-driven
// submission fast path: if the logical context is currently attached
// and usable it pins it — bumping the LRU clock exactly as AcquireOn
// would — and returns the hardware channel of the given kind. It never
// attaches and never waits; it reports false when the context is
// detached, mid-attach, or dead, and callers fall back to AcquireOn on
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
// a submission that ends up on the slow lane must charge exactly one
// LRU use, the AcquireOn it retries with, or the mux's eviction order
// drifts from the blocking-only timeline. The channel pointer is only
// valid within the current engine instant.
func (vc *VContext) Peek(kind gpu.Kind) (*gpu.Channel, bool) {
	if !vc.task.Alive || vc.hw == nil || vc.opBusy {
		return nil, false
	}
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch, true
		}
	}
	return nil, false
}

// Release unpins the logical context after an acquire. Channel pointers
// obtained from an acquire must not be stored across a Release: the
// next attach may produce fresh ones.
func (vc *VContext) Release() { vc.unpin() }

// attachPhase is where an attach waits or sleeps: what its next step
// does.
type attachPhase uint8

const (
	phSlot    attachPhase = iota // queued in the FIFO for a hardware slot
	phContext                    // sleeping the context syscall
	phChannel                    // sleeping a channel syscall
	phSwitch                     // sleeping the reattach's ContextSwitch
)

// begin starts the context's attach on c. A second acquire or eager
// open while one is in flight is a caller's bug, one lane racing
// another for the same context, so it panics naming the task and the
// context.
func (vc *VContext) begin(c *sim.Cont) {
	if vc.opBusy {
		panic(fmt.Sprintf("neon: task %q acquired logical context %q while its attach is in flight", vc.task.Name, vc.label))
	}
	vc.opBusy = true
	if vc.stepFn == nil {
		vc.stepFn, vc.readyFn = vc.step, vc.ready
	}
	vc.c = c
}

// step runs the attach's next step once its wait or sleep is over.
func (vc *VContext) step() {
	switch vc.phase {
	case phSlot:
		vc.take()
	case phContext:
		vc.contextCreated(vc.k.createContext(vc.task, vc.label))
	case phChannel:
		vc.channelCreated(vc.k.createChannel(vc.task, vc.ctx, vc.kinds[len(vc.chans)]))
	case phSwitch:
		vc.finish(nil)
	}
}

// ready is the slot wait's predicate: a slot was granted, or the
// context is dead.
func (vc *VContext) ready() bool { return !vc.task.Alive || vc.granted }

// slot is the head of the attach, which binds the logical context to a
// hardware context, creating the context and its channels through the
// setup syscalls: find a free hardware slot, evicting or queueing for
// one, then sleep the context syscall. The attach waits while the pool
// is exhausted and nothing is evictable. On success the context is
// pinned once and, if this is a reattach, the paper's ContextSwitch
// cost has been charged. Whatever the outcome, finish ends the attach.
func (vc *VContext) slot() {
	k := vc.k
	if !vc.task.Alive {
		vc.finish(gpu.ErrContextDead)
		return
	}
	if k.muxFree() <= 0 && !k.muxEvictLRU() {
		m := k.mux
		vc.queued = true
		m.waiters = append(m.waiters, vc)
		m.stats.AttachWaits++
		vc.phase = phSlot
		vc.c.WaitFor(&vc.task.gate, vc.readyFn, vc.stepFn)
		return
	}
	vc.sleepSyscall(phContext)
}

// sleepSyscall sleeps the trap and driver work of the next setup
// syscall; its effect is the step after.
func (vc *VContext) sleepSyscall(ph attachPhase) {
	vc.phase = ph
	vc.c.Sleep(vc.k.setupCost(), vc.stepFn)
}

// take follows the slot wait: consume the granted slot. A wait that
// ends without a grant ended with the task, whose exit has already
// taken the context out of the queue.
func (vc *VContext) take() {
	if !vc.granted {
		vc.finish(gpu.ErrContextDead)
		return
	}
	vc.granted = false
	vc.k.mux.reserved--
	vc.sleepSyscall(phContext)
}

// contextCreated follows the context syscall.
func (vc *VContext) contextCreated(ctx *gpu.Context, err error) {
	if err == gpu.ErrNoContexts {
		// Another context took the slot during the syscall sleep. An
		// attach sleeping its context syscall holds no reservation, so
		// meanwhile another mux attach may pass its slot search, or a
		// pump may grant the slot to a queued context (a raw client's
		// context creation would take it too); go around again.
		vc.slot()
		return
	}
	if err != nil {
		vc.k.muxPump()
		vc.finish(err)
		return
	}
	vc.ctx = ctx
	vc.nextChannel()
}

// nextChannel sleeps the next channel syscall, or binds the context
// once every kind has a channel.
func (vc *VContext) nextChannel() {
	if len(vc.chans) < len(vc.kinds) {
		vc.sleepSyscall(phChannel)
		return
	}
	vc.bind()
}

// channelCreated follows a channel syscall; a failure rolls the partial
// attach back and releases the slot.
func (vc *VContext) channelCreated(cs *ChannelState, err error) {
	if err == nil {
		vc.chans = append(vc.chans, cs)
		vc.nextChannel()
		return
	}
	k := vc.k
	k.muxUnbind(vc, vc.ctx)
	k.muxLeave(vc)
	k.muxPump()
	vc.finish(err)
}

// bind installs the built hardware state and pins it; a reattach then
// sleeps the ContextSwitch.
func (vc *VContext) bind() {
	m := vc.k.mux
	vc.hw = vc.ctx
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
		m.stats.Reattaches++
		vc.phase = phSwitch
		vc.c.Sleep(vc.k.costs.ContextSwitch, vc.stepFn)
		return
	}
	vc.everAttached = true
	vc.finish(nil)
}

// finish ends the attach: it frees the record, re-reads whether the
// context is evictable, and hands the outcome to the caller's
// continuation: the channel for an acquire, the context for an open.
func (vc *VContext) finish(err error) {
	acquired, opened := vc.acquired, vc.opened
	vc.c, vc.acquired, vc.opened, vc.ctx = nil, nil, nil, nil
	vc.opBusy = false
	vc.k.muxNote(vc)
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
	acquired(vc.channel(vc.kind))
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
	if vc.hw == nil || vc.pins > 0 || vc.opBusy {
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
// the freed work may let a queued context in.
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
// evictable, at once when the count says so. A nonzero count with no
// evictable context in the table is a broken count, which would leave
// a queued attach waiting on a slot nobody frees, so it panics naming
// the device. The scan's pick is unique: every attached context was
// pinned at least once, at its bind, and each pin draws a new clock
// value.
func (k *Kernel) muxEvictLRU() bool {
	m := k.mux
	if m.evictable == 0 {
		return false
	}
	var victim *VContext
	for _, vc := range m.attached {
		if vc.evictable() && (victim == nil || vc.lastUsed < victim.lastUsed) {
			victim = vc
		}
	}
	if victim == nil {
		panic(fmt.Sprintf("neon: device %q counts %d evictable logical contexts, and none of its %d attached is",
			k.dev.Name(), m.evictable, len(m.attached)))
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
	k.muxUnbind(vc, vc.hw)
	if k.drain.c == nil {
		for _, cs := range vc.chans {
			k.states.Put(cs)
		}
	}
	k.muxLeave(vc)
	k.mux.stats.Evictions++
}

// muxUnbind takes a hardware context and the logical context's channel
// states off the task — banking their completions, unmapping their
// pages — and gives the context back to the device, unless the task's
// exit has already killed it. Both a detach and the rollback of a
// failed attach end here.
func (k *Kernel) muxUnbind(vc *VContext, ctx *gpu.Context) {
	t := vc.task
	for _, cs := range vc.chans {
		t.retiredDone += cs.Ch.Completions
		delete(k.byPage, cs.Ch.Reg)
		t.removeChannel(cs)
	}
	t.removeContext(ctx)
	if ctx.Dead() {
		return
	}
	if err := k.dev.ReleaseContext(ctx); err != nil {
		panic(fmt.Sprintf("neon: mux release of task %q's busy context: %v", t.Name, err))
	}
}

// muxLeave drops the logical context's hold on hardware: it leaves the
// attached set, if it is in it, and forgets its channels. A detach, a
// rollback and the task's exit end here.
func (k *Kernel) muxLeave(vc *VContext) {
	if vc.hw != nil {
		m := k.mux
		for i, x := range m.attached {
			if x == vc {
				m.attached = append(m.attached[:i], m.attached[i+1:]...)
				break
			}
		}
		vc.hw = nil
	}
	clear(vc.chans)
	vc.chans = vc.chans[:0]
	k.muxNote(vc)
}

// muxPump grants freed hardware slots to queued contexts in FIFO order,
// evicting idle LRU contexts as needed. Called after request
// completions, task exits, and unpins; a kernel with nothing queued, or
// with no free slot and nothing evictable, returns at once.
func (k *Kernel) muxPump() {
	m := k.mux
	for len(m.waiters) > 0 {
		if k.muxFree() <= 0 && !k.muxEvictLRU() {
			return
		}
		vc := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.reserved++
		vc.queued, vc.granted = false, true
		vc.task.gate.Broadcast()
	}
}

// muxTaskExited unlinks a dead task's logical contexts (their hardware
// contexts were already destroyed by the device exit protocol) and
// recycles any slots or grants the task held. A dead task's context is
// never queued, so no pump meets one.
func (k *Kernel) muxTaskExited(t *Task) {
	m := k.mux
	if m == nil {
		return
	}
	for _, vc := range t.vctxs {
		// An attach stopped with its task's threads never finishes, so
		// the exit frees its record; one still running finishes dead.
		vc.opBusy = false
		if vc.granted {
			// Granted but never consumed; the slot goes back.
			m.reserved--
			vc.granted = false
		}
		if vc.queued {
			for i, x := range m.waiters {
				if x == vc {
					m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
					break
				}
			}
			vc.queued = false
		}
		k.muxLeave(vc)
	}
	t.vctxs = nil
	k.muxPump()
}
