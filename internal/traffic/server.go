// Package traffic is the open-loop request-driven serving layer: the
// bridge from the paper's closed-loop co-runner evaluation to a serving
// regime — open-loop arrivals, tail-latency percentiles, and explicit
// overload behavior.
//
// A Server owns a device fleet (internal/fleet) and a set of per-tenant
// Streams. Each stream's arrival process (deterministic, Poisson, MMPP
// bursty, diurnal-modulated) generates requests with open-loop
// semantics: arrivals never wait for completions, so offered load is a
// property of the source, not of the system's speed — exactly the
// regime where fair queueing, sticky placement, and throttling
// decisions get stressed. A front-door admission controller sheds
// arrivals when the fleet-wide queue depth exceeds a bound; admitted
// requests are placed per-request by the fleet's placement policy and
// drained by per-(tenant, device) dispatchers. Completion latencies
// (sojourn time: completion minus arrival) are stamped through the
// gpu.Request completion hook into a streaming quantile digest per
// tenant, alongside goodput and shed-rate counters.
package traffic

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// Stream is one tenant's open-loop request source: its fleet identity
// (name, request size, working set) and its arrival process.
type Stream struct {
	// Tenant carries the tenant's name, single-request service size
	// (Mix[0].Size), channel kinds, and working set — usually built with
	// workload.OpenLoopTenant.
	Tenant workload.TenantSpec
	// Arrival generates the stream's inter-arrival gaps. The instance is
	// owned by this stream: construct a fresh one per scenario.
	Arrival Arrival
}

// StreamStats is one stream's serving measurement since the last
// ResetStats.
type StreamStats struct {
	// Arrivals counts open-loop arrivals; Shed the ones refused at the
	// front door (a stream belongs to exactly one admission tier, so
	// this is the stream's per-tier shed counter); Completed the ones that
	// finished service; Aborted the ones killed with their context.
	Arrivals  int64
	Shed      int64
	Completed int64
	Aborted   int64
	// Latency is the sojourn-time digest (completion minus arrival,
	// including dispatcher queueing, placement cold time, ring queueing,
	// and service).
	Latency metrics.Digest
	// ColdTime is device time spent rebuilding the tenant's working set
	// after placement moved it across devices.
	ColdTime sim.Duration
	// Flushes counts batched-drain doorbells and Batched the submissions
	// they carried (both zero unless Config.BatchDrain): Batched/Flushes
	// is the mean backlog-collapse factor, and Batched-Flushes the
	// doorbells the batching saved.
	Flushes int64
	Batched int64
}

// GoodputPerSec returns completed requests per second over the window.
func (s *StreamStats) GoodputPerSec(window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.Completed) / window.Seconds()
}

// ShedRate returns the stream's shed fraction of arrivals.
func (s *StreamStats) ShedRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Shed) / float64(s.Arrivals)
}

// Config assembles a Server.
type Config struct {
	// Fleet configures the device pool (devices, placement policy,
	// per-device scheduler). The fleet's Seed also feeds stream RNGs.
	Fleet fleet.Config
	// AdmitDepth is the standard tier's fleet queue-depth bound; each
	// stream is admitted against its tenant's tier bound derived from it
	// (best-effort sheds at half this depth, premium at 1.25x — see
	// Admission.Bound). <= 0 disables admission control.
	AdmitDepth int
	// BatchDrain switches the dispatchers' backlog drain to batch
	// staging: a whole queued backlog is staged on the channel in one
	// engine instant and submitted with a single doorbell (one
	// userlib.Batch flush, one device kick) instead of one store — and
	// one DirectWrite of pacing — per request. Requests then reach the
	// device together at now+DirectWrite, so batched drains trade the
	// per-request doorbell timeline for submission cost; the default
	// (off) reproduces the per-request event sequence exactly.
	BatchDrain bool
	// Streams is the tenant population, one open-loop source each.
	Streams []Stream
}

// stream is the server's per-stream state. New allocates every
// stream's record in one array. The tenant's spec lives in its fleet
// tenant (fleet.Tenant.Spec); the record keeps only what serving reads.
type stream struct {
	arrival    Arrival
	ft         *fleet.Tenant
	rng        sim.RNG
	stats      StreamStats
	size       sim.Duration
	workingSet sim.Duration
	kind       gpu.Kind
	tier       workload.Tier

	// disp holds the stream's dispatcher on each node, by Node.Index
	// (nil until a request is placed there); first is the storage of
	// the first one the stream needs.
	disp  []*dispatcher
	first dispatcher

	// arriveFn is the stream's one event callback, bound once so
	// re-arming the chain allocates nothing: its first run starts the
	// chain (started), and every later one is an arrival.
	arriveFn func()
	started  bool
}

// Server drives open-loop request streams through a placed, admitted,
// fair-shared device fleet.
type Server struct {
	eng     *sim.Engine
	fleet   *fleet.Fleet
	adm     Admission
	batch   bool
	streams []*stream
}

// New builds the fleet, registers one tenant per stream, and starts each
// stream's arrival timer chain. The simulation (engine Run/RunFor) then
// serves traffic until stopped.
//
// Stream tenant specs, arrival processes and tier depths are validated
// here with a proper error that names the stream or the tier (the
// serving front door is where user-shaped configuration enters), so a
// malformed weight or tier never reaches the fleet's panic, a missing
// arrival process never reaches the engine, and a negative depth is
// never read as "never shed". When the
// fleet runs an allocation policy (Fleet.AllocPolicy), the server
// refreshes its admission tier bounds from the policy's targets after
// every allocator round: tier headroom then follows the policy's
// allocation instead of the hard-coded depth ratios. Policies without
// an opinion (static) leave the derived bounds untouched.
func New(eng *sim.Engine, cfg Config) (*Server, error) {
	for i, spec := range cfg.Streams {
		if err := spec.Tenant.Validate(); err != nil {
			return nil, fmt.Errorf("traffic: stream %d: %w", i, err)
		}
		if spec.Arrival == nil {
			return nil, fmt.Errorf("traffic: stream %d (tenant %q) has no arrival process", i, spec.Tenant.Name)
		}
	}
	f, err := fleet.New(eng, cfg.Fleet)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, fleet: f, batch: cfg.BatchDrain,
		adm: Admission{MaxDepth: cfg.AdmitDepth}}
	if pol := f.AllocPolicy(); pol != nil {
		f.OnTargets(func(snap policy.Snapshot, tg policy.Targets) {
			if b := policy.TierBounds(pol, snap, tg, cfg.AdmitDepth); b != nil {
				s.adm.TierDepths = b
			}
		})
	}
	recs := make([]stream, len(cfg.Streams))
	nodes := len(f.Nodes())
	disp := make([]*dispatcher, len(cfg.Streams)*nodes)
	s.streams = make([]*stream, len(cfg.Streams))
	for i, spec := range cfg.Streams {
		st := &recs[i]
		st.arrival = spec.Arrival
		st.ft = f.NewTenant(spec.Tenant)
		st.rng = sim.MakeRNG(sim.StreamSeed(cfg.Fleet.Seed, "traffic", i))
		st.size = spec.Tenant.Mix[0].Size
		st.workingSet = spec.Tenant.WorkingSet
		st.kind = spec.Tenant.Mix[0].Kind
		st.tier = spec.Tenant.Tier.Normalize()
		st.disp = disp[i*nodes : (i+1)*nodes : (i+1)*nodes]
		st.arriveFn = func() {
			if st.started {
				s.arrive(st)
			}
			st.started = true
			s.armArrival(st)
		}
		s.streams[i] = st
		// The chain starts from its own event at the current instant, not
		// inline, so its first draw and timer come after everything
		// queued before that event runs, in (time, seq) order.
		eng.Schedule(eng.Now(), st.arriveFn)
	}
	return s, nil
}

// Fleet returns the device pool the server places onto.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// Admission returns the front-door controller (its counters are live).
func (s *Server) Admission() *Admission { return &s.adm }

// Stats returns stream i's measurement, in Config.Streams order.
func (s *Server) Stats(i int) *StreamStats { return &s.streams[i].stats }

// SetupError returns the first stream client setup failure, if any.
func (s *Server) SetupError() error {
	for _, st := range s.streams {
		for _, d := range st.disp {
			if d != nil && d.err != nil {
				return d.err
			}
		}
	}
	return nil
}

// ResetStats clears stream, admission, and fleet counters (warmup
// exclusion). In-flight requests stay in flight; their latencies land
// in the new window, as on a live system.
func (s *Server) ResetStats() {
	s.adm.ResetStats()
	s.fleet.ResetStats()
	for _, st := range s.streams {
		st.stats = StreamStats{}
	}
}

// armArrival draws the stream's next inter-arrival gap and sets a timer
// for it; the timer delivers the arrival and re-arms. Arrivals are open
// loop: the chain never waits for service. A gap of zero or less
// delivers the arrival inline and draws again: same-instant arrivals
// share the event of the arrival before them, so no other work of the
// instant runs between them.
func (s *Server) armArrival(st *stream) {
	for {
		gap := st.arrival.Next(s.eng.Now(), &st.rng)
		if gap > 0 {
			s.eng.After(gap, st.arriveFn)
			return
		}
		s.arrive(st)
	}
}

// arrive handles one arrival at the front door. Admission is decided
// against the arriving tenant's tier bound, so under rising backlog
// best-effort streams shed first and premium streams last.
func (s *Server) arrive(st *stream) {
	st.stats.Arrivals++
	if !s.adm.AdmitTier(st.tier, s.fleet.QueueDepth()) {
		st.stats.Shed++
		return
	}
	n, migrated := s.fleet.PlaceRequest(st.ft)
	d := st.disp[n.Index]
	if d == nil {
		d = s.newDispatcher(st, n)
		d.start()
	}
	if d.err != nil {
		// The tenant's client on this node failed to set up; nothing will
		// ever drain here.
		s.fleet.RequestDone(n)
		st.stats.Aborted++
		return
	}
	d.queue = append(d.queue, item{
		arrival: s.eng.Now(),
		cold:    migrated && st.workingSet > 0,
	})
	d.wake()
}

// item is one admitted request waiting in a dispatcher queue.
type item struct {
	arrival sim.Time
	cold    bool
}

// dispatcher drains one (stream, node) queue: it submits requests in
// arrival order through the tenant's client on that node. Submission
// may wait on the node scheduler's interception (that is how engaged
// schedulers delay tenants), but completion is never waited for — the
// channel FIFO and the completion hook carry the rest.
//
// The drain is an engine continuation (sim.Cont), not a process, so a
// served tenant costs no coroutine. Its steps sit where a blocking
// drain's wake-ups would (DESIGN.md §14): the start is a Cont.Yield at
// the first arrival, where Spawn would put the activation; the idle
// wait ends with a Yield on the idle-to-backlogged transition, where a
// gate signal would wake the drain (edge-triggered: no lost wake per
// backlogged arrival); and each submission runs the client's steps
// (userlib.Client.SubmitDetachedOn) — the mux acquire, inline while
// the virtual context is attached and otherwise the attach's FIFO wait,
// setup syscalls and reattach ContextSwitch, then the doorbell store's
// DirectWrite or fault. Each acquire thus runs in the event that orders
// the mux's LRU clock and attach queue. The continuation belongs to
// the engine, not to the tenant's task, because the task's death must
// wake it to abort its queue. Config.BatchDrain turns a drained
// backlog into one staged batch with a single doorbell.
type dispatcher struct {
	srv    *Server
	st     *stream
	node   *fleet.Node
	queue  []item // queue[head:] waits; rewound to the start when drained
	head   int
	err    error
	client *userlib.Client
	ready  bool // client setup finished; arrivals may wake the drain
	idle   bool // drain waiting for an arrival (implies empty queue)
	c      sim.Cont

	// The submission in flight: the item's arrival stamp, whether it is
	// the item's cold rebuild (the request itself follows), and whether
	// it landed inline, inside submit.
	arrival    sim.Time
	cold       bool
	submitting bool
	landed     bool

	// doneFn is the completion hook, bound once: every request of this
	// (stream, node) pair shares it, so hooking a completion allocates
	// nothing. The continuation's steps are bound once too: one step
	// (the open before the client is ready, the drain after) and the
	// submission's hand-back. The open's hand-back runs once, so it is
	// bound at the open and not kept.
	doneFn      func(*gpu.Request)
	stepFn      func()
	submittedFn func(*gpu.Request)
}

// newDispatcher registers the (stream, node) dispatcher, not yet
// started: the stream's first one lives in the stream's record.
func (s *Server) newDispatcher(st *stream, n *fleet.Node) *dispatcher {
	d := &st.first
	if d.srv != nil {
		d = new(dispatcher)
	}
	d.srv, d.st, d.node = s, st, n
	s.eng.InitCont(&d.c)
	d.doneFn, d.stepFn, d.submittedFn = d.onDone, d.step, d.submitted
	st.disp[n.Index] = d
	return d
}

// start schedules the client open at the back of the current instant.
func (d *dispatcher) start() { d.c.Yield(d.stepFn) }

// wake resumes an idle drain once its client is open.
func (d *dispatcher) wake() {
	if d.ready && d.idle {
		d.idle = false
		d.c.Yield(d.stepFn)
	}
}

// step is the continuation's step: the client open until the client is
// ready, the drain from then on.
func (d *dispatcher) step() {
	if !d.ready {
		d.open()
		return
	}
	d.drain()
}

// open opens the tenant's client on the node; anything queued during
// setup is drained right after.
func (d *dispatcher) open() { d.st.ft.ClientOn(&d.c, d.node, d.opened) }

func (d *dispatcher) opened(client *userlib.Client, err error) {
	if err != nil {
		d.err = err
		d.drainFailed()
		return
	}
	d.client = client
	d.ready = true
	d.drain()
}

// drain serves the queue until it empties, then idles; a submission
// that waits on a step returns, and the step that lands it re-enters.
func (d *dispatcher) drain() {
	for {
		if d.cold {
			// The item's cold rebuild landed; its request follows.
			d.cold = false
			if !d.submit(d.st.size) {
				return
			}
			continue
		}
		if len(d.queue) == 0 {
			d.idle = true
			return
		}
		if d.srv.batch && d.batchDrain() {
			continue
		}
		it := d.pop()
		if task := d.st.ft.Task(d.node); task == nil || !task.Alive {
			// The tenant's context on this node was killed (run-limit or
			// DoS protection): the queued request can never be served here.
			d.srv.fleet.RequestDone(d.node)
			d.st.stats.Aborted++
			continue
		}
		d.arrival = it.arrival
		if it.cold {
			// Rebuild the warm working set ahead of the request, on the
			// same channel: FIFO ordering makes the reconstruction
			// complete first, and its device time is real capacity
			// spent — counted only when the rebuild was actually staged
			// (the task can die while the virtual context waits for a
			// hardware slot).
			d.cold = true
			if !d.submit(d.st.workingSet) {
				return
			}
			continue
		}
		if !d.submit(d.st.size) {
			return
		}
	}
}

// submit starts one submission on the dispatcher's continuation and
// reports whether it landed inline.
func (d *dispatcher) submit(size sim.Duration) bool {
	d.submitting, d.landed = true, false
	d.client.SubmitDetachedOn(&d.c, d.st.kind, size, nil, d.submittedFn)
	d.submitting = false
	return d.landed
}

// submitted accounts a landed submission — nil when the task died
// while the virtual context waited for a hardware slot, so the request
// can never be served here — and resumes the drain, unless the
// submission landed inline and submit's caller resumes it.
func (d *dispatcher) submitted(r *gpu.Request) {
	switch {
	case d.cold:
		if r != nil {
			d.st.stats.ColdTime += d.st.workingSet
			hookDone(r, releaseRequest)
		}
	case r == nil:
		d.srv.fleet.RequestDone(d.node)
		d.st.stats.Aborted++
	default:
		r.Stamp = d.arrival
		hookDone(r, d.doneFn)
	}
	if d.submitting {
		d.landed = true
		return
	}
	d.drain()
}

// batchDrain stages the whole backlog on the channel and rings one
// doorbell (Config.BatchDrain): the drain pays one StoreAsync and one
// device kick — and the continuation one wake — for k requests, and the
// batch reaches the device in one event at now+DirectWrite. Returns
// false, staging nothing, when the batch fast path is unavailable
// (engaged register, detached context); the per-request blocking path
// then takes over for this drain, preserving the fault/trap sequence
// engaged schedulers depend on.
func (d *dispatcher) batchDrain() bool {
	b, ok := d.client.BeginBatch(d.st.kind)
	if !ok {
		return false
	}
	for len(d.queue) > 0 {
		it := d.pop()
		if task := d.st.ft.Task(d.node); task == nil || !task.Alive {
			d.srv.fleet.RequestDone(d.node)
			d.st.stats.Aborted++
			continue
		}
		if it.cold {
			ws := d.st.workingSet
			b.Stage(ws, d.st.kind, releaseRequest)
			d.st.stats.ColdTime += ws
		}
		r := b.Stage(d.st.size, d.st.kind, d.doneFn)
		r.Stamp = it.arrival
	}
	if n := b.Len(); n > 0 {
		d.st.stats.Flushes++
		d.st.stats.Batched += int64(n)
	}
	b.Flush(d.srv.eng)
	return true
}

// pop removes the oldest queued item. Once the queue drains it rewinds
// to the start of its array, so later arrivals reuse it.
func (d *dispatcher) pop() item {
	it := d.queue[d.head]
	d.head++
	if d.head == len(d.queue) {
		d.queue = d.queue[:0]
		d.head = 0
	}
	return it
}

// onDone is the completion hook: it runs in engine context the instant
// the device finishes (or aborts) the request — no polling process per
// request. It releases the fleet's queue depth, counts the completion
// with its sojourn or the abort, and recycles the request
// (gpu.Request.OnDone).
func (d *dispatcher) onDone(r *gpu.Request) {
	d.srv.fleet.RequestDone(d.node)
	if r.Aborted {
		d.st.stats.Aborted++
	} else {
		d.st.stats.Completed++
		d.st.stats.Latency.Add(r.Completed.Sub(r.Stamp))
	}
	r.Release()
}

// releaseRequest is a cold rebuild's completion hook: nothing waits on
// the rebuild, so it goes back to its device's pool once it completes
// or aborts.
func releaseRequest(r *gpu.Request) { r.Release() }

// hookDone hooks fn on a landed request, or runs it now if the request
// has already finished: it aborted while its store was in flight.
func hookDone(r *gpu.Request, fn func(*gpu.Request)) {
	if r.IsDone() {
		fn(r)
	} else {
		r.OnDone = fn
	}
}

// drainFailed retires items queued before a client setup failure so
// the fleet depth does not leak; once err is set, arrive retires new
// placements to this node directly.
func (d *dispatcher) drainFailed() {
	for range d.queue[d.head:] {
		d.srv.fleet.RequestDone(d.node)
		d.st.stats.Aborted++
	}
	d.queue = d.queue[:0]
	d.head = 0
}
