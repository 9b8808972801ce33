// Package gpu models the computational accelerator of the paper: an
// Nvidia-Kepler-class GPU that accepts work through per-channel request
// queues mapped into application address spaces.
//
// The model reproduces every device behaviour the paper's schedulers
// depend on or are confounded by:
//
//   - per-context channels, each a FIFO of requests with a channel
//     register (doorbell) page and a reference counter the device writes
//     back at each request completion;
//   - an execution engine that cycles round-robin among channels with
//     pending requests, paying a context-switch cost between contexts —
//     including the configurable graphics-arbitration penalty that causes
//     the paper's glxgears anomaly under Disengaged Fair Queueing;
//   - a DMA engine that overlaps transfers with computation (the source
//     of >1.0 concurrency efficiency in Figure 7);
//   - Turing-complete requests: a request may run forever, and the only
//     remedy is the exit protocol (killing the owning context);
//   - a finite 48-context limit (the Section 6.3 denial-of-service
//     surface).
package gpu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/mmio"
	"repro/internal/sim"
)

// TaskID identifies the resource principal (OS process) owning a context.
type TaskID int

// Kind classifies requests and the channels that carry them.
type Kind int

const (
	// Compute is a CUDA/OpenCL-style compute request.
	Compute Kind = iota
	// Graphics is a rendering request.
	Graphics
	// DMA is a host/device transfer; it runs on the copy engine and may
	// overlap with Compute/Graphics execution.
	DMA
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Graphics:
		return "graphics"
	case DMA:
		return "dma"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Forever is a request size that never completes on its own — the
// infinite-loop kernel of the paper's denial-of-service discussion.
const Forever sim.Duration = 1 << 62

// Errors returned by resource allocation.
var (
	ErrNoContexts  = errors.New("gpu: out of contexts")
	ErrContextDead = errors.New("gpu: context is dead")
	ErrContextBusy = errors.New("gpu: context has in-flight work")
)

// Config sets the device's capacity and arbitration behaviour.
type Config struct {
	// Name identifies the device instance in multi-device fleets
	// ("dev0", "dev1", ...); single-device stacks may leave it empty.
	Name string
	// Class is the device generation (cost.Classes); the zero value is
	// the reference class. Requests of nominal size S occupy a class-c
	// engine for S/c.Speed, and Costs is derived for the class at
	// construction (cost.Model.ForClass).
	Class cost.Class
	// MaxContexts is the number of hardware contexts (48 on the GTX670).
	MaxContexts int
	// GraphicsPenalty models non-uniform internal arbitration: a graphics
	// channel is served once for every GraphicsPenalty passes over it when
	// competing with non-graphics channels. 1 means uniform round-robin.
	GraphicsPenalty int
	// Costs is the platform latency model.
	Costs cost.Model
}

// DefaultConfig returns the GTX670-calibrated configuration with uniform
// arbitration.
func DefaultConfig() Config {
	return Config{
		MaxContexts:     48,
		GraphicsPenalty: 1,
		Costs:           cost.Default(),
	}
}

// Request is one unit of work submitted to a channel.
type Request struct {
	ID   uint64
	Ref  uint64 // reference-counter value written at completion
	Size sim.Duration
	Kind Kind

	Submitted sim.Time
	Started   sim.Time
	Completed sim.Time
	Aborted   bool

	// Stamp is scratch space for upper layers: the serving layer stores
	// the open-loop arrival time it measures sojourn latency from. The
	// device never reads or writes it.
	Stamp sim.Time

	// OnDone, if set, is invoked exactly once, in engine context, when
	// the request completes or aborts — immediately before the done gate
	// opens. It is the completion hook open-loop serving layers use to
	// stamp latencies without dedicating a waiter process per request.
	// The hook may Release the request: finish holds a pin across the
	// hook and the gate's opening, so the request recycles once its gate
	// has opened, and a request the hook stages next is a different
	// object. Install it before the request can finish (for a request of
	// nonzero size, any time up to its completion instant).
	OnDone func(*Request)

	ch       *Channel
	done     sim.Gate
	pins     int32 // holds beyond completion (sampling watchers, finish itself)
	released bool  // owner released while pinned: recycle at the last Unpin
	pooled   bool  // currently on the device free list
}

// finish invokes the completion hook (once) and opens the done gate,
// pinned throughout, so a hook that releases the request recycles it
// only after the gate has opened.
func (r *Request) finish() {
	r.pins++
	if fn := r.OnDone; fn != nil {
		r.OnDone = nil
		fn(r)
	}
	r.done.Open()
	r.Unpin()
}

// Channel returns the channel the request was submitted to.
func (r *Request) Channel() *Channel { return r.ch }

// DoneGate returns the gate opened when the request completes or aborts.
// User-space completion polling is modeled as waiting on this gate: it
// costs nothing and involves no kernel interaction, exactly like spinning
// on the reference counter in shared memory.
func (r *Request) DoneGate() *sim.Gate { return &r.done }

// IsDone reports whether the request has completed or been aborted.
func (r *Request) IsDone() bool { return r.Completed != 0 || r.Aborted }

// Pin places a hold on the request beyond its completion instant — a
// sampling watcher keeps the pointer and reads timing fields after the
// done gate opens — so the request does not recycle until the hold ends
// (Unpin).
func (r *Request) Pin() { r.pins++ }

// Unpin ends a hold placed by Pin. If the owner has already released
// the request, the last Unpin recycles it: a pinned request recycles at
// the later of its owner's Release and its last Unpin.
func (r *Request) Unpin() {
	r.pins--
	if r.pins == 0 && r.released {
		r.released = false
		r.recycle()
	}
}

// Release returns the request to its device's free pool for reuse by a
// later Stage. The caller asserts that no other component still holds
// the pointer: completion has been processed (the done gate opened and
// its waiters ran, or the submitter owned the only reference), or the
// caller is the request's own OnDone hook, which finish's pin covers. A
// pinned request recycles at its last Unpin instead. Double releases
// are no-ops.
func (r *Request) Release() {
	if r.pooled || r.ch == nil {
		return
	}
	if r.pins > 0 {
		r.released = true
		return
	}
	r.recycle()
}

func (r *Request) recycle() {
	r.pooled = true
	d := r.ch.Ctx.dev
	d.reqFree = append(d.reqFree, r)
}

// Context is a GPU address space holding channels whose requests may be
// causally related. It belongs to one task.
type Context struct {
	ID       int
	Owner    TaskID
	Label    string
	dev      *Device
	channels []*Channel
	dead     bool

	// BusyTime is cumulative engine time consumed by this context's
	// requests. This is the "hardware statistic" the paper wishes vendors
	// exported; only the oracle scheduler variant may read it.
	BusyTime sim.Duration
}

// Dead reports whether the context has been torn down.
func (c *Context) Dead() bool { return c.dead }

// Channels returns the context's channels.
func (c *Context) Channels() []*Channel { return c.channels }

// Channel is a GPU request queue: ring buffer, command buffer, channel
// register page, and reference counter.
type Channel struct {
	ID   int
	Ctx  *Context
	Kind Kind

	// Reg is the doorbell page. Stores to it (possibly faulting) are how
	// requests become visible to the device.
	Reg *mmio.Page

	// RefCount is the device-written reference counter: the Ref of the
	// most recently completed request. The kernel polling service reads
	// it; user space spins on it.
	RefCount uint64

	// LastSubmittedRef is the reference value of the most recent request
	// to actually reach the ring (doorbell rung). In the real system NEON
	// discovers it by scanning the command queue (paying
	// cost.ReengageScan); the field itself is ordinary shared memory.
	LastSubmittedRef uint64

	// Completions counts completed requests on this channel.
	Completions int64

	ring    []*Request // submitted, not yet executed: the live window is ring[head:]
	head    int        // ring consumer index; popped entries are dead, compacted on submit
	staged  []*Request // constructed, doorbell not yet rung
	nextRef uint64
	skips   int // graphics-penalty bookkeeping

	// gen counts the channel's releases (Device.ReleaseContext). A
	// released channel is recycled by a later CreateChannel, so a holder
	// that kept the pointer across a release checks the generation it
	// saw against Generation before it acts.
	gen uint64
}

// Generation returns the number of times the channel has been released.
// A holder that captured it while the channel was its own and reads a
// different value later holds a stale handle: the channel has since
// been released and may now belong to another context.
func (ch *Channel) Generation() uint64 { return ch.gen }

// Pending returns the number of submitted-but-unfinished requests,
// including one currently executing.
func (ch *Channel) Pending() int {
	n := len(ch.ring) - ch.head
	if cur := ch.engine().current; cur != nil && cur.ch == ch {
		n++
	}
	return n
}

// Idle reports whether the channel is completely quiescent: nothing in
// the ring, nothing staged in the command buffer, not executing, and not
// the target of an in-progress context switch. Only an idle channel may
// be gracefully detached (Device.ReleaseContext).
func (ch *Channel) Idle() bool {
	if len(ch.ring) != ch.head || len(ch.staged) != 0 {
		return false
	}
	en := ch.engine()
	if cur := en.current; cur != nil && cur.ch == ch {
		return false
	}
	if en.switching == ch {
		return false
	}
	return true
}

// popRing removes and returns the head of the ring. The backing array is
// reused once drained, so a steady-state submit/serve cycle does not
// allocate.
func (ch *Channel) popRing() *Request {
	r := ch.ring[ch.head]
	ch.ring[ch.head] = nil
	ch.head++
	if ch.head == len(ch.ring) {
		ch.ring = ch.ring[:0]
		ch.head = 0
	}
	return r
}

func (ch *Channel) engine() *engine {
	if ch.Kind == DMA {
		return ch.Ctx.dev.dmaEngine
	}
	return ch.Ctx.dev.execEngine
}

// Stage constructs a request in the command buffer: user-space work that
// costs nothing at the device. Ring the doorbell (store to Reg) to submit.
// Request objects come from the device's free pool (see Request.Release)
// so the steady-state submit path does not allocate.
func (ch *Channel) Stage(size sim.Duration, kind Kind) *Request {
	d := ch.Ctx.dev
	ch.nextRef++
	r := d.getRequest()
	r.ID = d.nextReqID()
	r.Ref = ch.nextRef
	r.Size = size
	r.Kind = kind
	r.ch = ch
	ch.staged = append(ch.staged, r)
	return r
}

// abortStaged aborts the staged requests up to reference value, in
// order, on a dead context. A request a completion hook stages
// meanwhile joins the list, and it aborts too if value covers it.
func (ch *Channel) abortStaged(value uint64) {
	for len(ch.staged) > 0 && ch.staged[0].Ref <= value {
		r := ch.staged[0]
		ch.staged[0] = nil
		ch.staged = ch.staged[1:]
		r.Aborted = true
		r.finish()
	}
}

// StagedRequests returns requests constructed in the command buffer whose
// doorbell has not yet been rung. The kernel may inspect this — it is the
// command-buffer scan of paper Section 4 (costed via cost.FaultScan).
func (ch *Channel) StagedRequests() []*Request { return ch.staged }

// Device is the accelerator.
type Device struct {
	eng   *sim.Engine
	cfg   Config
	cost  cost.Model
	speed float64 // class speed factor, cached off cfg.Class

	contexts  []*Context // live contexts in creation order, at most MaxContexts
	nextCtxID int
	nextChID  int
	reqID     uint64

	// ctxFree and chFree hold gracefully released contexts and channels
	// (ReleaseContext) for reuse by CreateContext and CreateChannel, so a
	// reattach rebuilds no hardware state: the channel keeps its doorbell
	// page, that page's bound sink and deliver steps, and the backing
	// arrays of its ring, staged list and deferred stores.
	ctxFree []*Context
	chFree  []*Channel

	execEngine *engine // compute + graphics
	dmaEngine  *engine // copy engine

	// reqFree is the Request free pool fed by Request.Release; Stage
	// draws from it, reusing the object and its done gate, and takes a
	// fresh request from reqSlab when it is empty.
	reqFree []*Request
	reqSlab sim.Slab[Request]

	// regs pools the store records of every channel register, so a
	// channel recreated by a reattach stores without allocating.
	regs mmio.Records

	// CompletionObserver, if set, is informed after each request retires
	// on either engine (completion delivered, next dispatch not yet
	// chosen), with the channel the request retired from. The
	// virtual-context mux uses it to notice channels turning idle and to
	// hand freed hardware contexts to attach waiters.
	CompletionObserver func(ch *Channel)
}

// New creates a device and starts its engines on e. Unset fields of cfg
// (zero MaxContexts, GraphicsPenalty or Costs) take DefaultConfig's
// values; the fields the caller set are kept.
func New(e *sim.Engine, cfg Config) *Device {
	def := DefaultConfig()
	if cfg.MaxContexts <= 0 {
		cfg.MaxContexts = def.MaxContexts
	}
	if cfg.GraphicsPenalty <= 0 {
		cfg.GraphicsPenalty = def.GraphicsPenalty
	}
	if cfg.Costs == (cost.Model{}) {
		cfg.Costs = def.Costs
	}
	cfg.Class = cfg.Class.OrReference()
	d := &Device{
		eng:   e,
		cfg:   cfg,
		cost:  cfg.Costs.ForClass(cfg.Class),
		speed: cfg.Class.Speed,
	}
	d.execEngine = newEngine(d, "gpu-exec", true)
	d.dmaEngine = newEngine(d, "gpu-dma", false)
	return d
}

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Name returns the device instance name from its Config.
func (d *Device) Name() string { return d.cfg.Name }

// Config returns the device's effective configuration (after
// construction-time defaulting).
func (d *Device) Config() Config { return d.cfg }

// Class returns the device's generation class.
func (d *Device) Class() cost.Class { return d.cfg.Class }

// ClassSpeed returns the class's relative speed factor: the rate this
// device retires nominal work relative to the reference class. Observed
// device time times ClassSpeed is normalized work.
func (d *Device) ClassSpeed() float64 { return d.speed }

// scaled converts a nominal request size into this device's execution
// time. Forever stays Forever: an infinite kernel does not finish
// faster on a better card.
func (d *Device) scaled(size sim.Duration) sim.Duration {
	if d.speed == 1 || size >= Forever {
		return size
	}
	return sim.Duration(float64(size) / d.speed)
}

// Costs returns the platform latency model in use.
func (d *Device) Costs() cost.Model { return d.cost }

// ContextCount returns the number of live contexts.
func (d *Device) ContextCount() int { return len(d.contexts) }

// Contexts returns the live contexts in creation order, as a new slice.
func (d *Device) Contexts() []*Context {
	return append([]*Context(nil), d.contexts...)
}

// removeContext drops c from the live contexts, keeping creation order.
func (d *Device) removeContext(c *Context) {
	for i, x := range d.contexts {
		if x == c {
			last := len(d.contexts) - 1
			copy(d.contexts[i:], d.contexts[i+1:])
			d.contexts[last] = nil
			d.contexts = d.contexts[:last]
			return
		}
	}
}

func (d *Device) nextReqID() uint64 {
	d.reqID++
	return d.reqID
}

// getRequest returns a request from the free pool, or a fresh one from
// the slab when the pool is empty. Stage sets the identity fields; a
// recycled request's other fields are zeroed one by one, since its
// embedded gate must not be copied, and the gate, whose waiters were
// released before the request was, closes.
func (d *Device) getRequest() *Request {
	n := len(d.reqFree)
	if n == 0 {
		r := d.reqSlab.New()
		d.eng.InitGate(&r.done, "reqdone")
		return r
	}
	r := d.reqFree[n-1]
	d.reqFree = d.reqFree[:n-1]
	r.Submitted, r.Started, r.Completed, r.Aborted = 0, 0, 0, false
	r.Stamp, r.OnDone, r.pooled = 0, nil, false
	r.done.Close()
	return r
}

// CreateContext allocates a hardware context for owner. It fails when the
// device is out of contexts — the Section 6.3 denial-of-service surface.
// A gracefully released context is reused when one is free; it reads as
// new, with the next ID.
func (d *Device) CreateContext(owner TaskID, label string) (*Context, error) {
	if len(d.contexts) >= d.cfg.MaxContexts {
		return nil, ErrNoContexts
	}
	var c *Context
	if n := len(d.ctxFree); n > 0 {
		c = d.ctxFree[n-1]
		d.ctxFree[n-1] = nil
		d.ctxFree = d.ctxFree[:n-1]
		*c = Context{channels: c.channels[:0]}
	} else {
		c = new(Context)
	}
	c.ID, c.Owner, c.Label, c.dev = d.nextCtxID, owner, label, d
	d.nextCtxID++
	d.contexts = append(d.contexts, c)
	return c, nil
}

// CreateChannel adds a request queue of the given kind to the context.
// The returned channel's doorbell page is initially present (direct
// access), matching the vendor stack's default. A released channel is
// reused when one is free: it reads as new, with the next ID, zeroed
// counters, empty queues and a present page without a handler.
func (d *Device) CreateChannel(c *Context, kind Kind) (*Channel, error) {
	if c.dead {
		return nil, ErrContextDead
	}
	var ch *Channel
	if n := len(d.chFree); n > 0 {
		ch = d.chFree[n-1]
		d.chFree[n-1] = nil
		d.chFree = d.chFree[:n-1]
		*ch = Channel{Reg: ch.Reg, ring: ch.ring[:0], staged: ch.staged[:0], gen: ch.gen}
		ch.Reg.Reset()
	} else {
		ch = new(Channel)
		ch.Reg = d.regs.NewPage(d.cost, func(value uint64) {
			d.doorbell(ch, value)
		})
	}
	ch.ID, ch.Ctx, ch.Kind = d.nextChID, c, kind
	d.nextChID++
	c.channels = append(c.channels, ch)
	ch.engine().addChannel(ch)
	return ch, nil
}

// doorbell is the device-side effect of a store to a channel register:
// staged requests up to the stored reference value enter the ring. On a
// dead context they abort instead: a completion hook may have staged
// them after the kill.
func (d *Device) doorbell(ch *Channel, value uint64) {
	if ch.Ctx.dead {
		ch.abortStaged(value)
		return
	}
	now := d.eng.Now()
	if ch.head > 32 && ch.head*2 > len(ch.ring) {
		// Compact the consumed prefix so a never-empty ring under
		// sustained backlog cannot grow without bound.
		n := copy(ch.ring, ch.ring[ch.head:])
		ch.ring = ch.ring[:n]
		ch.head = 0
	}
	moved := 0
	for _, r := range ch.staged {
		if r.Ref > value {
			break
		}
		r.Submitted = now
		ch.ring = append(ch.ring, r)
		ch.LastSubmittedRef = r.Ref
		moved++
	}
	if moved == len(ch.staged) {
		ch.staged = ch.staged[:0]
	} else {
		ch.staged = ch.staged[moved:]
	}
	ch.engine().kick()
}

// KillContext implements the exit protocol: the context is marked dead,
// queued and staged requests are aborted, an in-flight request is
// aborted, and the context's channels leave the engines. The paper
// relies on this (via killing the owning process) to recover from
// over-long requests. A request that a completion hook stages on the
// channel being swept aborts in the sweep, which runs until the
// channel's staged list stays empty; one staged after the kill aborts
// at its doorbell.
func (d *Device) KillContext(c *Context) {
	if c.dead {
		return
	}
	c.dead = true
	for _, ch := range c.channels {
		for _, r := range ch.ring[ch.head:] {
			r.Aborted = true
			r.finish()
		}
		ch.ring = nil
		ch.head = 0
		ch.abortStaged(math.MaxUint64)
		ch.engine().removeChannel(ch)
	}
	d.execEngine.abortIfContext(c)
	d.dmaEngine.abortIfContext(c)
	d.removeContext(c)
}

// ReleaseContext gracefully detaches a context, returning its hardware
// slot to the pool without disturbing in-flight work. Every channel
// must be Idle; otherwise ErrContextBusy is returned and nothing
// changes. Unlike KillContext there is no abort: the caller is expected
// to recreate an equivalent context later and pay the paper's
// context-switch cost on reattach.
//
// The released context and its channels go on the device's free lists
// for CreateContext and CreateChannel to reuse, and each channel's
// generation advances (Channel.Generation): the caller must hold no
// pointer to them past the release. A channel whose doorbell page
// still has a store in flight is not reused; its context stays dead,
// as a killed one does.
func (d *Device) ReleaseContext(c *Context) error {
	if c.dead {
		return ErrContextDead
	}
	for _, ch := range c.channels {
		if !ch.Idle() {
			return ErrContextBusy
		}
	}
	c.dead = true
	reuse := true
	for _, ch := range c.channels {
		ch.engine().removeChannel(ch)
		ch.gen++
		reuse = reuse && ch.Reg.Quiet()
	}
	d.removeContext(c)
	d.execEngine.forget(c)
	d.dmaEngine.forget(c)
	if reuse {
		d.chFree = append(d.chFree, c.channels...)
		clear(c.channels)
		c.channels = c.channels[:0]
		d.ctxFree = append(d.ctxFree, c)
	}
	return nil
}

// KillOwner kills every context belonging to the task, in creation
// order.
func (d *Device) KillOwner(owner TaskID) {
	for i := 0; i < len(d.contexts); {
		if c := d.contexts[i]; c.Owner == owner {
			d.KillContext(c) // removes c: the next context moves to i
			continue
		}
		i++
	}
}

// TotalBusy returns cumulative execution-engine busy time (including a
// partially executed in-flight request). Experiments snapshot this at
// window boundaries to compute utilization.
func (d *Device) TotalBusy() sim.Duration { return d.execEngine.totalBusy() }

// CurrentRequest returns the request executing on the main engine, if any.
func (d *Device) CurrentRequest() *Request { return d.execEngine.current }
