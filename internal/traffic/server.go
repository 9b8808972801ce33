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
	// this is the stream's per-tier shed counter — Admission.TierCounts
	// holds the cross-stream tier aggregates); Completed the ones that
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
	// Admission.Bound). <= 0 disables admission control unless
	// TierDepths is set.
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
	// TierDepths overrides the derived per-tier admission bounds.
	TierDepths map[workload.Tier]int
	// Streams is the tenant population, one open-loop source each.
	Streams []Stream
}

// stream is the server's per-stream state.
type stream struct {
	spec  Stream
	ft    *fleet.Tenant
	rng   *sim.RNG
	stats StreamStats
	disp  map[*fleet.Node]*dispatcher
	size  sim.Duration
	kind  gpu.Kind
	tier  workload.Tier

	// arriveFn is the stream's arrival timer callback, bound once so
	// re-arming the chain allocates nothing.
	arriveFn func()
}

// Server drives open-loop request streams through a placed, admitted,
// fair-shared device fleet.
type Server struct {
	eng     *sim.Engine
	fleet   *fleet.Fleet
	adm     Admission
	batch   bool
	streams []*stream

	// Same-tick completion coalescing: completion hooks append to
	// doneBuf and the first append of an instant schedules one flush
	// event at the back of that instant, so N same-tick completions cost
	// one digest/stats delivery pass instead of N callback hops. Only
	// commutative per-stream accounting is deferred; fleet queue-depth
	// release stays inline in the hook because same-tick admission
	// decisions read it.
	doneBuf     []doneRec
	flushQueued bool
	flushFn     func()
}

// doneRec is one completed request awaiting the tick-end stats flush.
type doneRec struct {
	st  *stream
	r   *gpu.Request
	lat sim.Duration
}

// New builds the fleet, registers one tenant per stream, and starts each
// stream's arrival timer chain. The simulation (engine Run/RunFor) then
// serves traffic until stopped.
//
// Stream tenant specs are validated here with a proper error (the
// serving front door is where user-shaped configuration enters), so a
// malformed weight or tier never reaches the fleet's panic. When the
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
	}
	f, err := fleet.New(eng, cfg.Fleet)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, fleet: f, batch: cfg.BatchDrain,
		adm: Admission{MaxDepth: cfg.AdmitDepth, TierDepths: cfg.TierDepths}}
	s.flushFn = s.flushDone
	if pol := f.AllocPolicy(); pol != nil {
		f.OnTargets(func(snap policy.Snapshot, tg policy.Targets) {
			if b := policy.TierBounds(pol, snap, tg, cfg.AdmitDepth); b != nil {
				s.adm.TierDepths = b
			}
		})
	}
	for i, spec := range cfg.Streams {
		st := &stream{
			spec: spec,
			ft:   f.NewTenant(spec.Tenant),
			rng:  sim.NewRNG(sim.StreamSeed(cfg.Fleet.Seed, "traffic", i)),
			disp: make(map[*fleet.Node]*dispatcher),
			size: spec.Tenant.Mix[0].Size,
			kind: spec.Tenant.Mix[0].Kind,
			tier: spec.Tenant.Tier.Normalize(),
		}
		st.arriveFn = func() {
			s.arrive(st)
			s.armArrival(st)
		}
		s.streams = append(s.streams, st)
		// The chain starts from its own event at the current instant, not
		// inline, so its first draw and timer come after everything
		// queued before that event runs, in (time, seq) order.
		eng.Schedule(eng.Now(), func() { s.armArrival(st) })
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
		for _, n := range s.fleet.Nodes() {
			if d := st.disp[n]; d != nil && d.err != nil {
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
		gap := st.spec.Arrival.Next(s.eng.Now(), st.rng)
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
	d := st.disp[n]
	if d == nil {
		d = &dispatcher{srv: s, st: st, node: n,
			gate: s.eng.NewGate("dispatch-" + st.spec.Tenant.Name)}
		d.doneFn = d.onDone
		st.disp[n] = d
		s.eng.Spawn("dispatch/"+st.spec.Tenant.Name, d.run)
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
		cold:    migrated && st.spec.Tenant.WorkingSet > 0,
	})
	if d.ready && d.idle {
		// Edge-triggered wake: the drain parks only with an empty queue,
		// so only the idle-to-backlogged transition signals the gate —
		// same wake event position as a broadcast to the parked process,
		// without a (lost) broadcast per backlogged arrival.
		d.idle = false
		d.gate.Signal()
	}
}

// item is one admitted request waiting in a dispatcher queue.
type item struct {
	arrival sim.Time
	cold    bool
}

// dispatcher drains one (stream, node) queue: it submits requests in
// arrival order through the tenant's client on that node. Submission
// may block on the node scheduler's interception (that is how engaged
// schedulers delay tenants), but completion is never waited for — the
// channel FIFO and the completion hook carry the rest.
//
// The drain stays process-driven — unlike the closed-loop drivers'
// continuation machines (DESIGN.md §14) — because every serving client
// rides a virtual (multiplexed) context: each acquire orders the mux's
// LRU clock and attach queue by the event it runs in, and only a
// process can block through an attach, so an engine-context refusal
// hop would shift those orderings within the instant. The wake is
// edge-triggered instead of broadcast-per-arrival (gate signal only on
// the idle-to-backlogged transition), and Config.BatchDrain turns a
// drained backlog into one staged batch with a single doorbell.
type dispatcher struct {
	srv    *Server
	st     *stream
	node   *fleet.Node
	queue  []item
	err    error
	client *userlib.Client
	ready  bool // client setup finished; wakes may target the gate
	idle   bool // drain parked on the gate (implies empty queue)
	gate   *sim.Gate

	// doneFn is the completion hook, bound once: every request of this
	// (stream, node) pair shares it, so hooking a completion allocates
	// nothing.
	doneFn func(*gpu.Request)
}

// run opens the tenant's client on the node (anything queued during
// setup is drained right after), then serves wake-drain cycles.
func (d *dispatcher) run(p *sim.Proc) {
	client, err := d.st.ft.Client(p, d.node)
	if err != nil {
		d.err = err
		d.drainFailed()
		return
	}
	d.client = client
	d.ready = true
	for {
		if len(d.queue) == 0 {
			d.idle = true
			p.Wait(d.gate)
			continue
		}
		if d.srv.batch && d.batchDrain() {
			continue
		}
		it := d.queue[0]
		d.queue = d.queue[1:]
		if task := d.st.ft.Task(d.node); task == nil || !task.Alive {
			// The tenant's context on this node was killed (run-limit or
			// DoS protection): the queued request can never be served here.
			d.srv.fleet.RequestDone(d.node)
			d.st.stats.Aborted++
			continue
		}
		if it.cold {
			// Rebuild the warm working set ahead of the request, on the
			// same channel: FIFO ordering makes the reconstruction complete
			// first, and its device time is real capacity spent — counted
			// only when the rebuild was actually staged (the task can die
			// while the virtual context waits for a hardware slot).
			ws := d.st.spec.Tenant.WorkingSet
			if d.client.SubmitDetached(p, d.st.kind, ws) != nil {
				d.st.stats.ColdTime += ws
			}
		}
		r := d.client.SubmitDetached(p, d.st.kind, d.st.size)
		if r == nil {
			// The task died while the virtual context waited for a
			// hardware slot; the request can never be served here.
			d.srv.fleet.RequestDone(d.node)
			d.st.stats.Aborted++
			continue
		}
		r.Stamp = it.arrival
		if r.IsDone() {
			d.onDone(r)
		} else {
			r.OnDone = d.doneFn
		}
	}
}

// batchDrain stages the whole backlog on the channel and rings one
// doorbell (Config.BatchDrain): the drain pays one StoreAsync and one
// device kick — and the process one wake — for k requests, and the
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
		it := d.queue[0]
		d.queue = d.queue[1:]
		if task := d.st.ft.Task(d.node); task == nil || !task.Alive {
			d.srv.fleet.RequestDone(d.node)
			d.st.stats.Aborted++
			continue
		}
		if it.cold {
			ws := d.st.spec.Tenant.WorkingSet
			b.Stage(ws, d.st.kind, nil)
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

// onDone is the completion hook: it runs in engine context the instant
// the device finishes (or aborts) the request — no polling process per
// request. The fleet's queue-depth release and the abort counter are
// immediate; completed-request stats are batched into the server's
// tick-end flush.
func (d *dispatcher) onDone(r *gpu.Request) {
	d.srv.fleet.RequestDone(d.node)
	if r.Aborted {
		d.st.stats.Aborted++
		return
	}
	d.srv.enqueueDone(d.st, r)
}

// enqueueDone buffers a completed request for the tick-end stats flush,
// scheduling the flush event on the first completion of the instant.
func (s *Server) enqueueDone(st *stream, r *gpu.Request) {
	s.doneBuf = append(s.doneBuf, doneRec{st: st, r: r, lat: r.Completed.Sub(r.Stamp)})
	if !s.flushQueued {
		s.flushQueued = true
		s.eng.After(0, s.flushFn)
	}
}

// flushDone delivers the instant's coalesced completions: per-stream
// goodput counters and latency digest adds, in completion order. The
// requests are then recycled to their device pools — every holder is
// done with them by the end of the completion instant (sampling
// watchers pin theirs, which exempts them from recycling).
func (s *Server) flushDone() {
	s.flushQueued = false
	buf := s.doneBuf
	for i := range buf {
		rec := &buf[i]
		rec.st.stats.Completed++
		rec.st.stats.Latency.Add(rec.lat)
		rec.r.Release()
		*rec = doneRec{}
	}
	s.doneBuf = buf[:0]
}

// drainFailed retires items queued before a client setup failure so
// the fleet depth does not leak; once err is set, arrive retires new
// placements to this node directly.
func (d *dispatcher) drainFailed() {
	for range d.queue {
		d.srv.fleet.RequestDone(d.node)
		d.st.stats.Aborted++
	}
	d.queue = nil
}
