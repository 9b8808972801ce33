// Package userlib is the user-level runtime library of the stack — the
// stand-in for the vendor's CUDA/OpenCL/OpenGL libraries. Applications
// use it to set up GPU contexts and channels (syscalls, caught by the
// kernel's initialization phase) and to submit requests through the
// direct-mapped channel registers (no kernel involvement unless the
// scheduler has engaged the channel).
//
// It also offers a trap-per-request submission mode modeling the
// alternative stack design (the paper's AMD Catalyst comparison point),
// used by the Section 3 throughput experiment.
package userlib

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// Client is a task's handle to the GPU: one context plus one channel per
// requested kind. A client opened with OpenVirtual holds a logical
// context instead (VC non-nil): the hardware context is attached lazily
// per submission and may be transparently evicted and re-attached by
// the kernel's virtual-context mux, so submission methods can return a
// nil request when the task dies mid-attach.
type Client struct {
	Task *neon.Task
	Ctx  *gpu.Context

	// VC is the logical context backing a virtual client; nil for raw
	// clients opened with Open.
	VC *neon.VContext

	kernel   *neon.Kernel
	channels map[gpu.Kind]*gpu.Channel
	order    []gpu.Kind

	// subFree lists finished submission records for reuse; sub0 is the
	// first of them, so a client with one submission in flight at a
	// time allocates no record.
	subFree *submission
	sub0    submission

	// TrapPerRequest switches submissions to the syscall path: every
	// request pays a kernel trap (plus driver work if TrapDriverWork),
	// bypassing the direct-mapped interface entirely.
	TrapPerRequest bool
	// TrapDriverWork adds nontrivial driver processing to each trap.
	TrapDriverWork bool
}

// Open creates a context and one channel per kind for the task: the
// blocking form of OpenOn, which p parks once for.
func Open(p *sim.Proc, k *neon.Kernel, t *neon.Task, label string, kinds ...gpu.Kind) (*Client, error) {
	return sim.AwaitResult(p, func(lane *sim.Cont, then func(*Client, error)) {
		OpenOn(lane, k, t, label, kinds, then)
	})
}

// OpenOn creates a context and one channel per kind for the task and
// hands the client to then, as a step of lane. Each setup syscall's
// trap and driver work is a sleep of lane (neon.Kernel.CreateContextOn,
// CreateChannelOn). A failed syscall hands then its error; stopping
// lane abandons the open.
func OpenOn(lane *sim.Cont, k *neon.Kernel, t *neon.Task, label string, kinds []gpu.Kind, then func(*Client, error)) {
	k.CreateContextOn(lane, t, label, func(ctx *gpu.Context, err error) {
		if err != nil {
			then(nil, err)
			return
		}
		c := &Client{
			Task:     t,
			Ctx:      ctx,
			kernel:   k,
			channels: make(map[gpu.Kind]*gpu.Channel, len(kinds)),
		}
		c.init()
		var next func()
		next = func() {
			if len(c.order) == len(kinds) {
				then(c, nil)
				return
			}
			kind := kinds[len(c.order)]
			k.CreateChannelOn(lane, t, ctx, kind, func(cs *neon.ChannelState, err error) {
				if err != nil {
					then(nil, err)
					return
				}
				c.channels[kind] = cs.Ch
				c.order = append(c.order, kind)
				next()
			})
		}
		next()
	})
}

// OpenVirtual creates a client backed by a logical (virtual) context:
// the blocking form of OpenVirtualOn.
func OpenVirtual(p *sim.Proc, k *neon.Kernel, t *neon.Task, label string, kinds ...gpu.Kind) (*Client, error) {
	return sim.AwaitResult(p, func(lane *sim.Cont, then func(*Client, error)) {
		OpenVirtualOn(lane, k, t, label, kinds, then)
	})
}

// OpenVirtualOn creates a client backed by a logical (virtual) context
// and hands it to then, as a step of lane: the task can always open
// one, regardless of how many hardware contexts the device has, and the
// kernel multiplexes the hardware pool underneath. When a hardware slot
// is free the attach happens eagerly here, paying exactly the setup
// syscalls Open would; otherwise the first submission attaches
// (queueing for a slot if the pool is exhausted, and paying
// cost.ContextSwitch on every re-attach). The client and the logical
// context keep kinds: the caller must not change it afterwards.
func OpenVirtualOn(lane *sim.Cont, k *neon.Kernel, t *neon.Task, label string, kinds []gpu.Kind, then func(*Client, error)) {
	openVirtual(lane, k, t, label, kinds, nil, then)
}

// Clients hands out the clients of many virtual opens from slab chunks
// (sim.Slab), for a layer that opens one per tenant: a client
// then costs a slot in a chunk, not an object. The zero value is ready
// to use; the clients live as long as their chunk does.
type Clients struct {
	slab sim.Slab[Client]
}

// OpenVirtualOn is the package's OpenVirtualOn with the client taken
// from cs.
func (cs *Clients) OpenVirtualOn(lane *sim.Cont, k *neon.Kernel, t *neon.Task, label string, kinds []gpu.Kind, then func(*Client, error)) {
	openVirtual(lane, k, t, label, kinds, cs, then)
}

func openVirtual(lane *sim.Cont, k *neon.Kernel, t *neon.Task, label string, kinds []gpu.Kind, cs *Clients, then func(*Client, error)) {
	k.OpenVirtualOn(lane, t, label, kinds, func(vc *neon.VContext, err error) {
		if err != nil {
			then(nil, err)
			return
		}
		var c *Client
		if cs != nil {
			c = cs.slab.New()
		} else {
			c = new(Client)
		}
		c.Task, c.VC, c.kernel, c.order = t, vc, k, vc.Kinds()
		c.init()
		then(c, nil)
	})
}

// init readies the client's first submission record.
func (c *Client) init() {
	c.sub0.c = c
	c.subFree = &c.sub0
}

// Channel returns the client's channel of the given kind, or nil. For a
// virtual client this is the currently attached hardware channel; nil
// while detached.
func (c *Client) Channel(kind gpu.Kind) *gpu.Channel {
	if c.VC != nil {
		return c.VC.ChannelIf(kind)
	}
	return c.channels[kind]
}

// Kinds returns the channel kinds the client opened, in creation order.
func (c *Client) Kinds() []gpu.Kind { return c.order }

// Kernel returns the kernel the client was opened on.
func (c *Client) Kernel() *neon.Kernel { return c.kernel }

// SubmitDetachedOn stages and submits a request on the kind's channel
// as steps of lane, and hands the request to then once its doorbell
// store has landed, without waiting for completion. Open-loop serving
// dispatchers use it: completion is observed through the request's own
// done hook. onDone, if non-nil, is hooked at staging, before the
// store.
//
// The steps sit where a process's wake-ups would: a virtual client's
// acquire (AcquireOn: inline when attached, else the attach's steps),
// the trap of trap-per-request mode, and the store (mmio.Page.StoreOn:
// the DirectWrite, or the fault when the register is engaged). A
// virtual context stays pinned until the store lands. On a virtual
// client then receives nil, staging nothing, if the task dies before
// the logical context can attach. Stopping lane abandons the
// submission, pin included: a lane is stopped when its task exits,
// which closes the context.
func (c *Client) SubmitDetachedOn(lane *sim.Cont, kind gpu.Kind, size sim.Duration, onDone, then func(*gpu.Request)) {
	c.submitOn(lane, kind, size, subDetached, onDone, then)
}

// SubmitEngagedOn completes, as steps of lane, a submission whose fast
// path was refused because the channel register was engaged (Engaged
// reported true at the refusal instant). The store is committed to the
// fault path (mmio.Page.FaultOn), so the request pays the fault trap
// and runs the kernel handler even if the scheduler disengaged the page
// between the refusal and this step, exactly as a store that took the
// fault at the observation would have. onDone, if non-nil, is hooked at
// staging, before the store: the handler may delay the store
// arbitrarily and the request can abort (task death) while staged. It
// does not wait for completion: then receives the request once the
// store has been single-stepped to the device. It covers raw and
// virtual clients alike: a virtual context is acquired first
// (VContext.AcquireOn) and stays pinned until the store lands, and then
// receives nil, staging nothing, if the task dies before the context
// can attach. Stopping lane abandons the submission.
func (c *Client) SubmitEngagedOn(lane *sim.Cont, kind gpu.Kind, size sim.Duration, onDone, then func(*gpu.Request)) {
	c.submitOn(lane, kind, size, subEngaged, onDone, then)
}

// SubmitSyncOn is SubmitSync in continuation form: it submits a request
// and hands it to then, as a step of lane, once it has completed or
// aborted. It keeps the blocking order of a synchronous launch: acquire
// a virtual context (AcquireOn, inline when attached), stage, trap in
// trap-per-request mode, store — asynchronously when the page is
// present, unpinning at once, which is SubmitAsync's store, and
// otherwise through the store's steps (mmio.Page.StoreOn), which fault
// on an engaged register, unpinning once it lands — then wait on the
// done gate. On a virtual client then receives nil, staging nothing, if
// the task dies before the context can attach. Stopping lane abandons
// the submission.
func (c *Client) SubmitSyncOn(lane *sim.Cont, kind gpu.Kind, size sim.Duration, then func(*gpu.Request)) {
	c.submitOn(lane, kind, size, subSync, nil, then)
}

// submitOn starts a submission record on lane: acquire, stage, trap,
// store, then the mode's ending.
func (c *Client) submitOn(lane *sim.Cont, kind gpu.Kind, size sim.Duration, mode subMode, onDone, then func(*gpu.Request)) {
	s := c.submission()
	s.lane, s.kind, s.size, s.mode, s.onDone, s.then = lane, kind, size, mode, onDone, then
	if c.VC == nil {
		s.acquired(c.channels[kind], nil)
		return
	}
	if s.acquiredFn == nil {
		s.acquiredFn = s.acquired
	}
	c.VC.AcquireOn(lane, kind, s.acquiredFn)
}

// subMode is what a submission does at its store and after it.
type subMode uint8

const (
	subDetached subMode = iota // StoreOn; hand the request on once it lands
	subEngaged                 // FaultOn, the committed fault; then as subDetached
	subSync                    // StoreAsync if present, else StoreOn; then wait for completion
)

// submission is one lane-form submission in flight. Records are pooled
// per client; a submission whose lane is stopped abandons its record.
type submission struct {
	c      *Client
	lane   *sim.Cont
	kind   gpu.Kind
	size   sim.Duration
	mode   subMode
	ch     *gpu.Channel
	gen    uint64 // ch's generation when acquired
	r      *gpu.Request
	onDone func(*gpu.Request)
	then   func(*gpu.Request)
	next   *submission // the client's free list

	// Steps, bound on first use.
	acquiredFn                  func(*gpu.Channel, error)
	trappedFn, storedFn, doneFn func()
}

// submission takes a record from the client's pool.
func (c *Client) submission() *submission {
	s := c.subFree
	if s == nil {
		return &submission{c: c}
	}
	c.subFree, s.next = s.next, nil
	return s
}

// acquired stages the request on the acquired channel and rings the
// doorbell, after the trap in trap-per-request mode.
func (s *submission) acquired(ch *gpu.Channel, err error) {
	if err != nil {
		s.finish(nil)
		return
	}
	s.ch, s.gen = ch, ch.Generation()
	s.r = ch.Stage(s.size, s.kind)
	s.r.OnDone = s.onDone
	if c := s.c; c.TrapPerRequest {
		cost := c.kernel.Costs().SyscallTrap
		if c.TrapDriverWork {
			cost += c.kernel.Costs().SyscallDriverWork
		}
		if s.trappedFn == nil {
			s.trappedFn = s.trapped
		}
		s.lane.Sleep(cost, s.trappedFn)
		return
	}
	s.trapped()
}

// trapped rings the doorbell. The channel must still be the one the
// submission acquired: a virtual context stays pinned from the acquire
// until the store lands, so no eviction can have released it, and a
// channel released anyway (a broken pin count) panics here, naming the
// task, rather than ring another context's doorbell.
func (s *submission) trapped() {
	if g := s.ch.Generation(); g != s.gen {
		panic(fmt.Sprintf("userlib: task %q stores to channel %d, released since its acquire (generation %d, now %d)",
			s.c.Task.Name, s.ch.ID, s.gen, g))
	}
	if s.storedFn == nil {
		s.storedFn = s.stored
	}
	switch {
	case s.mode == subEngaged:
		s.ch.Reg.FaultOn(s.lane, s.r.Ref, s.storedFn)
	case s.mode == subSync && !s.c.TrapPerRequest && s.ch.Reg.StoreAsync(s.c.kernel.Engine(), s.r.Ref):
		s.stored()
	default:
		s.ch.Reg.StoreOn(s.lane, s.r.Ref, s.storedFn)
	}
}

// stored follows the landed store: unpin a virtual context and hand
// the request on, once it has completed in sync mode.
func (s *submission) stored() {
	if s.c.VC != nil {
		s.c.VC.Release()
	}
	if s.mode == subSync {
		s.wait()
		return
	}
	s.finish(s.r)
}

// wait hands the request on once it has completed.
func (s *submission) wait() {
	if s.doneFn == nil {
		s.doneFn = func() { s.finish(s.r) }
	}
	s.lane.Wait(s.r.DoneGate(), s.doneFn)
}

// finish recycles the record and runs the caller's continuation.
func (s *submission) finish(r *gpu.Request) {
	then := s.then
	s.lane, s.ch, s.r, s.onDone, s.then = nil, nil, nil, nil, nil
	s.next, s.c.subFree = s.c.subFree, s
	then(r)
}

// SubmitAsync is the continuation-passing submission fast path: stage,
// hook the completion continuation, ring the doorbell asynchronously —
// all from engine (or process) context, never blocking and never waking
// a process. The device sees the store at now+DirectWrite, exactly as a
// direct-mapped blocking store would deliver it, and onDone (if non-nil)
// fires exactly once in engine context when the request completes or
// aborts — before the request's done gate opens, per gpu.Request.OnDone.
//
// It reports false — staging nothing — whenever completing the
// submission needs a slow lane: trap-per-request mode, an
// engaged (non-present) channel register, or a virtual client whose
// logical context is not currently attached. Callers then take a slow
// lane that charges the trap or fault costs the slow paths owe: the
// lane forms (SubmitEngagedOn when the refusal was an engaged register,
// SubmitDetachedOn or SubmitSyncOn otherwise) or SubmitSync. Completion
// is observed through the continuation.
func (c *Client) SubmitAsync(e *sim.Engine, kind gpu.Kind, size sim.Duration, onDone func(*gpu.Request)) (*gpu.Request, bool) {
	if c.TrapPerRequest {
		return nil, false
	}
	ch := c.peek(kind)
	if ch == nil || !ch.Reg.Present() {
		return nil, false
	}
	if c.VC != nil {
		if _, ok := c.VC.AcquireIf(kind); !ok {
			return nil, false
		}
		defer c.VC.Release()
	}
	r := ch.Stage(size, kind)
	r.OnDone = onDone
	if !ch.Reg.StoreAsync(e, r.Ref) {
		panic("userlib: async store refused on a present page")
	}
	return r, true
}

// Engaged reports whether the async fast path is unavailable solely
// because the scheduler has engaged the channel register: the channel is
// resolvable without blocking (raw client, or attached virtual context)
// but the register page is non-present. A continuation machine calls it
// in the same engine instant as a SubmitAsync refusal to decide whether
// the retry on its lane must commit to the fault path (SubmitEngagedOn)
// — the handoff to the lane is an event hop, and the scheduler may
// disengage within the instant, which must not turn a store that was
// observed engaged into a direct write.
func (c *Client) Engaged(kind gpu.Kind) bool {
	if c.TrapPerRequest {
		return false
	}
	ch := c.peek(kind)
	return ch != nil && !ch.Reg.Present()
}

// peek returns the kind's channel if a submission can reach it without
// blocking: a raw client's own, or the channel of a virtual client's
// attached logical context. It returns nil otherwise. Only a raw
// client's channel map is read; a virtual client has none. A virtual
// client peeks and does not pin: a refused submission must leave the
// mux LRU clock untouched, so that the blocking retry's Acquire is the
// one use the submission charges (see VContext.Peek).
func (c *Client) peek(kind gpu.Kind) *gpu.Channel {
	if c.VC != nil {
		ch, _ := c.VC.Peek(kind)
		return ch
	}
	return c.channels[kind]
}

// SubmitSync submits a request and blocks until it completes, like a
// blocking OpenCL kernel launch. Completion is detected by user-space
// polling of the reference counter (no kernel involvement).
//
// On the fast path (SubmitAsync) the doorbell reaches the device at
// now+DirectWrite without a process wakeup in between, and the process
// parks once, on the done gate. Otherwise it is the blocking form of
// SubmitSyncOn: an engaged channel, a detached virtual context or the
// trap-per-request mode take that form's steps, which may delay the
// process arbitrarily. On a virtual client it returns nil if the task
// dies before the logical context can attach.
func (c *Client) SubmitSync(p *sim.Proc, kind gpu.Kind, size sim.Duration) *gpu.Request {
	if r, ok := c.SubmitAsync(p.Engine(), kind, size, nil); ok {
		p.Wait(r.DoneGate())
		return r
	}
	r, _ := sim.AwaitResult(p, func(lane *sim.Cont, then func(*gpu.Request, error)) {
		c.SubmitSyncOn(lane, kind, size, func(r *gpu.Request) { then(r, nil) })
	})
	return r
}

// Batch stages several requests on one channel and rings a single
// doorbell for all of them — the open-loop dispatchers' backlog-drain
// path, paying one StoreAsync and one device kick per batch instead of
// per request. The hardware model makes this exact: a doorbell store
// carries the highest staged reference value, and the device moves every
// staged request up to it into the ring at delivery (gpu.Device
// doorbell), so the whole batch reaches the device in one event at
// now+DirectWrite — same-instant delivery for all members.
//
// A batch must begin, stage, and flush within a single engine instant
// (no process yields in between): Begin checks the fast path once, and
// the page cannot change state under an atomic instant.
type Batch struct {
	c    *Client
	ch   *gpu.Channel
	n    int
	last uint64
}

// BeginBatch opens a batch on the kind's channel, pinning a virtual
// client's context until Flush. Like SubmitAsync it refuses — staging
// nothing — when the fast path is unavailable (trap-per-request mode,
// engaged register, or detached virtual context); callers fall back to
// per-request blocking submission, which preserves the per-request
// fault/trap sequence engaged schedulers depend on.
func (c *Client) BeginBatch(kind gpu.Kind) (Batch, bool) {
	if c.TrapPerRequest {
		return Batch{}, false
	}
	ch := c.peek(kind)
	if ch == nil || !ch.Reg.Present() {
		return Batch{}, false
	}
	if c.VC != nil {
		if _, ok := c.VC.AcquireIf(kind); !ok {
			return Batch{}, false
		}
	}
	return Batch{c: c, ch: ch}, true
}

// Stage adds one request to the batch without ringing the doorbell. The
// continuation fires per request, exactly as with SubmitAsync.
func (b *Batch) Stage(size sim.Duration, kind gpu.Kind, onDone func(*gpu.Request)) *gpu.Request {
	r := b.ch.Stage(size, kind)
	r.OnDone = onDone
	b.n++
	b.last = r.Ref
	return r
}

// Len returns the number of requests staged so far.
func (b *Batch) Len() int { return b.n }

// Flush rings one doorbell for the whole batch (a no-op for an empty
// one) and unpins a virtual client's context. The batch is dead after
// Flush.
func (b *Batch) Flush(e *sim.Engine) {
	if b.n > 0 {
		if !b.ch.Reg.StoreAsync(e, b.last) {
			panic("userlib: batch flush refused on a present page")
		}
	}
	if b.c.VC != nil {
		b.c.VC.Release()
	}
	b.c = nil
	b.ch = nil
}
