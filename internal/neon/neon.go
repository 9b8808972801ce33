// Package neon models the paper's prototype kernel module of the same
// name: the OS-resident machinery that makes disengaged scheduling
// possible without cooperation from the (black-box) GPU stack.
//
// It provides, against the simulated MMIO/GPU substrate, the same three
// functional components as the real module (paper Section 4):
//
//   - an initialization phase that learns about every channel when it is
//     created (channel setup is a syscall, so it cannot be missed even
//     while disengaged);
//   - a page-fault handling mechanism that catches channel-register
//     writes while a channel is engaged, charges the per-fault buffer
//     scanning cost, and asks the attached scheduler's admission
//     predicate, which may delay the faulting submission arbitrarily;
//   - a polling-thread service that detects request completion by reading
//     device-written reference counters at a configurable granularity —
//     the granularity is the source of draining idleness in the paper's
//     overhead measurements.
//
// On top of these it offers the primitives schedulers are built from,
// in continuation form: engage/disengage, drain barriers with over-long
// request killing, sampling runs that measure per-request service times,
// and protected channel allocation (Section 6.3).
package neon

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/mmio"
	"repro/internal/sim"
)

// ErrChannelQuota is returned when the channel-allocation protection
// policy denies a context or channel request.
var ErrChannelQuota = errors.New("neon: channel allocation quota exceeded")

// Scheduler is the event-based scheduling interface the kernel exposes.
// Implementations live in package core.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Start is called once, after the kernel is constructed. The
	// scheduler may start its control loop on a continuation
	// (sim.Engine.NewCont), whose steps drain (DrainOn) and sample
	// (SampleOn), and install initial protection state.
	Start(k *Kernel)
	// TaskAdmitted is called when a task first becomes known.
	TaskAdmitted(t *Task)
	// TaskExited is called when a task exits or is killed.
	TaskExited(t *Task)
	// ChannelActivated is called when a channel completes its
	// initialization phase. The scheduler decides its protection state.
	ChannelActivated(cs *ChannelState)
}

// Admitter is implemented by schedulers that delay intercepted
// submissions (that is how engaged schedulers delay requests). After
// the handler's scan, a faulting submission of task t proceeds to the
// device once Admit(t) holds or t has died; until then it waits on t's
// gate and re-tests at every broadcast. Admit must be free of side
// effects: it may run more than once per fault. The kernel finds it by
// type assertion, and a scheduler without it admits every fault at
// once.
type Admitter interface {
	Admit(t *Task) bool
}

// ChannelState is the kernel's per-channel bookkeeping: the channel
// identity plus what interception has learned about it.
type ChannelState struct {
	Ch   *gpu.Channel
	Task *Task

	// Faults counts intercepted submissions on this channel.
	Faults int64

	sampling    bool
	watchedRef  uint64
	drainTarget uint64

	// vc is the logical context the channel is bound to under the
	// virtual-context mux; nil for a raw client's channel.
	vc *VContext
}

// ChannelPolicy is the Section 6.3 protected-allocation policy: no task
// may hold more than MaxChannelsPerTask channels, and no more than
// MaxTasks tasks may hold channels at once.
type ChannelPolicy struct {
	MaxChannelsPerTask int
	MaxTasks           int
}

// Kernel is the NEON module: it owns tasks, channel state, the fault
// handler and the polling service, and drives the attached scheduler.
type Kernel struct {
	eng   *sim.Engine
	dev   *gpu.Device
	costs cost.Model
	sched Scheduler
	admit Admitter // sched's admission predicate; nil admits every fault

	taskOrder  []*Task // every task admitted, indexed by ID
	nextTaskID gpu.TaskID
	byPage     map[*mmio.Page]*ChannelState
	onFaultFn  mmio.FaultHandler // k.onFault, bound once for every channel page

	// Tasks and logical contexts come from slab chunks, and the
	// channel states of contexts the mux detached are reused.
	taskSlab sim.Slab[Task]
	vcSlab   sim.Slab[VContext]
	csFree   []*ChannelState

	// live is the snapshot Tasks returns, rebuilt into a new array by
	// the first call after a task is admitted or exits (liveStale).
	live      []*Task
	liveStale bool

	drain  drain       // the one drain record, reused by every DrainOn
	sample sampleState // the one sampling record, reused by every SampleOn

	// mux is the virtual-context multiplexing front-end (mux.go), nil
	// until the first OpenVirtual call.
	mux *muxState

	// Pools of delivered fault records and finished sampling watchers;
	// a watcher the pool cannot give comes from watchSlab.
	faultFree []*kfault
	watchFree []*watcher
	watchSlab sim.Slab[watcher]

	// Policy, when non-nil, enables protected channel allocation.
	Policy *ChannelPolicy

	// RequestRunLimit is the documented maximum time any request may run;
	// tasks exceeding it during a drain are killed. Zero disables killing.
	RequestRunLimit sim.Duration

	// Counters for experiments.
	TotalFaults int64
	Kills       int64
}

// NewKernel attaches a kernel to the device and starts the scheduler.
func NewKernel(dev *gpu.Device, sched Scheduler) *Kernel {
	k := &Kernel{
		eng:    dev.Engine(),
		dev:    dev,
		costs:  dev.Costs(),
		sched:  sched,
		byPage: make(map[*mmio.Page]*ChannelState),
	}
	k.onFaultFn = k.onFault
	k.admit, _ = sched.(Admitter)
	sched.Start(k)
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Device returns the managed device.
func (k *Kernel) Device() *gpu.Device { return k.dev }

// Costs returns the platform latency model.
func (k *Kernel) Costs() cost.Model { return k.costs }

// Scheduler returns the attached scheduling policy.
func (k *Kernel) Scheduler() Scheduler { return k.sched }

// Tasks returns live tasks in admission order. The slice is a shared
// snapshot: callers must not modify it, and it does not change when a
// task is later admitted or exits.
func (k *Kernel) Tasks() []*Task {
	if k.liveStale {
		live := make([]*Task, 0, len(k.taskOrder))
		for _, t := range k.taskOrder {
			if t.Alive {
				live = append(live, t)
			}
		}
		k.live, k.liveStale = live, false
	}
	return k.live
}

// NewTask admits a new resource principal (an OS process). Task IDs
// are dense: the n-th task a kernel admits has ID n-1.
func (k *Kernel) NewTask(name string) *Task {
	t := k.taskSlab.New()
	t.ID, t.Name, t.Alive, t.kernel = k.nextTaskID, name, true, k
	k.eng.InitGate(&t.gate, name)
	// Most tasks hold one context, one channel and at most one logical
	// context: the first of each needs no array of its own.
	t.contexts, t.channels, t.vctxs = t.ctx0[:0], t.ch0[:0], t.vc0[:0]
	k.nextTaskID++
	k.taskOrder = append(k.taskOrder, t)
	k.liveStale = true
	k.sched.TaskAdmitted(t)
	return t
}

// CreateContextOn is the context-setup syscall in continuation form: it
// sleeps the trap plus driver work on c, applies the protection policy,
// creates the context and hands it to then, as a step of c. Stopping c
// during the sleep abandons the call: no context is created.
func (k *Kernel) CreateContextOn(c *sim.Cont, t *Task, label string, then func(*gpu.Context, error)) {
	c.Sleep(k.setupCost(), func() { then(k.createContext(t, label)) })
}

// CreateChannelOn is the channel-setup syscall in continuation form:
// the initialization phase of the paper. After the trap plus driver
// work, slept on c, the kernel identifies the channel's VMAs, installs
// the fault handler, marks the channel active, and lets the scheduler
// choose its initial protection; then receives the channel state, as a
// step of c.
func (k *Kernel) CreateChannelOn(c *sim.Cont, t *Task, ctx *gpu.Context, kind gpu.Kind, then func(*ChannelState, error)) {
	c.Sleep(k.setupCost(), func() { then(k.createChannel(t, ctx, kind)) })
}

// setupCost is what one setup syscall sleeps: the trap plus the driver
// work.
func (k *Kernel) setupCost() sim.Duration {
	return k.costs.SyscallTrap + k.costs.SyscallDriverWork
}

// createContext is the context syscall's effect, after the trap.
func (k *Kernel) createContext(t *Task, label string) (*gpu.Context, error) {
	if !t.Alive {
		return nil, gpu.ErrContextDead
	}
	if k.Policy != nil && len(t.channels) == 0 && k.holdersCount() >= k.Policy.MaxTasks {
		return nil, ErrChannelQuota
	}
	ctx, err := k.dev.CreateContext(t.ID, label)
	if err != nil {
		return nil, err
	}
	t.contexts = append(t.contexts, ctx)
	return ctx, nil
}

// createChannel is the channel syscall's effect, after the trap.
func (k *Kernel) createChannel(t *Task, ctx *gpu.Context, kind gpu.Kind) (*ChannelState, error) {
	if !t.Alive {
		return nil, gpu.ErrContextDead
	}
	if k.Policy != nil && len(t.channels) >= k.Policy.MaxChannelsPerTask {
		return nil, ErrChannelQuota
	}
	ch, err := k.dev.CreateChannel(ctx, kind)
	if err != nil {
		return nil, err
	}
	var cs *ChannelState
	if n := len(k.csFree); n > 0 {
		cs = k.csFree[n-1]
		k.csFree[n-1] = nil
		k.csFree = k.csFree[:n-1]
	} else {
		cs = new(ChannelState)
	}
	*cs = ChannelState{Ch: ch, Task: t}
	t.channels = append(t.channels, cs)
	k.byPage[ch.Reg] = cs
	ch.Reg.SetHandler(k.onFaultFn)
	k.sched.ChannelActivated(cs)
	return cs, nil
}

// holdersCount returns the number of live tasks currently holding
// channels.
func (k *Kernel) holdersCount() int {
	n := 0
	for _, t := range k.taskOrder {
		if t.Alive && len(t.channels) > 0 {
			n++
		}
	}
	return n
}

// onFault is the page-fault handler: every store to an engaged channel
// register lands here after the trap, as a step of the faulting
// thread's continuation. The handler's work is the same three steps
// the prototype's is (paper §4): scan the channel, register sampling
// watchers, and let the scheduler delay the submission; then the store
// is single-stepped to the device.
func (k *Kernel) onFault(f *mmio.Fault) {
	cs, ok := k.byPage[f.Page]
	if !ok {
		f.Deliver()
		return
	}
	k.TotalFaults++
	cs.Faults++
	var h *kfault
	if n := len(k.faultFree); n > 0 {
		h = k.faultFree[n-1]
		k.faultFree = k.faultFree[:n-1]
	} else {
		h = &kfault{k: k}
		h.scannedFn, h.admitsFn, h.deliverFn = h.scanned, h.admits, h.deliver
	}
	h.f, h.cs = f, cs
	// Manipulation cost: scan the channel's buffers to locate the
	// reference counter for this request and map it into kernel space.
	f.Cont.Sleep(k.costs.FaultScan, h.scannedFn)
}

// kfault is the kernel's state for one fault between the trap and the
// delivery. Records are pooled on the kernel; a fault whose thread is
// killed abandons its record, which then holds nothing live.
type kfault struct {
	k  *Kernel
	f  *mmio.Fault
	cs *ChannelState

	// Continuation steps, bound once per record.
	scannedFn, deliverFn func()
	admitsFn             func() bool
}

// scanned follows the scan: watch newly staged requests of a sampled
// channel, then wait until the scheduler admits the submission.
func (h *kfault) scanned() {
	if h.cs.sampling {
		h.k.watchStaged(h.cs)
	}
	if h.k.admit == nil {
		h.deliver()
		return
	}
	h.f.Cont.WaitFor(h.cs.Task.Gate(), h.admitsFn, h.deliverFn)
}

// admits is the wait predicate: the scheduler admits the task, or the
// task has died (its store then lands on a dead context).
func (h *kfault) admits() bool {
	t := h.cs.Task
	return !t.Alive || h.k.admit.Admit(t)
}

// deliver recycles the record and single-steps the store.
func (h *kfault) deliver() {
	f := h.f
	h.f, h.cs = nil, nil
	h.k.faultFree = append(h.k.faultFree, h)
	f.Deliver()
}

// Engage protects every channel of the task: subsequent submissions
// fault into the kernel.
func (k *Kernel) Engage(t *Task) {
	for _, cs := range t.channels {
		cs.Ch.Reg.SetPresent(false)
	}
}

// Disengage unprotects every channel of the task: submissions go straight
// to the device at direct-access cost.
func (k *Kernel) Disengage(t *Task) {
	for _, cs := range t.channels {
		cs.Ch.Reg.SetPresent(true)
	}
}

// EngageAll engages every live task (a barrier precondition).
func (k *Kernel) EngageAll() {
	for _, t := range k.Tasks() {
		k.Engage(t)
	}
}

// KillTask terminates a task: its processes are unwound, its contexts are
// destroyed through the device exit protocol, and the scheduler is
// informed. reason is recorded for reports.
func (k *Kernel) KillTask(t *Task, reason string) {
	if !t.Alive {
		return
	}
	k.Kills++
	t.exit(fmt.Sprintf("killed: %s", reason))
}
