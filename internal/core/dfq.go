package core

import (
	"time"

	"repro/internal/neon"
	"repro/internal/sim"
)

// DFQConfig parameterizes Disengaged Fair Queueing (paper Section 5.2
// defaults).
type DFQConfig struct {
	// SamplePeriod caps each task's sampling run.
	SamplePeriod sim.Duration
	// SampleRequests ends a sampling run early once this many requests
	// have been observed (SampleRequestsMulti for a task with more than
	// one channel).
	SampleRequests int
	// FreeRunMultiplier scales the disengaged free-run period relative to
	// the engagement episode.
	FreeRunMultiplier int
	// Fleet, when non-nil, reconciles this device's virtual times with a
	// fleet-wide board at every engagement episode (see FleetVT). Single-
	// device operation leaves it nil and denial stays purely local.
	Fleet FleetVT
	// RawCharges disables class normalization: virtual time is charged
	// in observed device time regardless of the device's class speed —
	// the pre-heterogeneity accounting, kept as the ablation the hetero
	// experiment compares against. On a mixed fleet it systematically
	// overcharges (and thus starves) tenants stuck on slow devices.
	RawCharges bool
}

// PrincipalID is a fleet-wide principal handle: the stable uint32 slot
// the exchange assigns to a task name the first time it is seen.
// Schedulers resolve a name once (FleetVT.Principal) and report every
// subsequent episode through the handle, so the steady-state exchange
// moves no strings and allocates nothing.
type PrincipalID uint32

// EpisodeEntry is one principal's row in an episode batch. The reporter
// (Ledger.Episode, for every scheduler) fills Principal/Charge/Active/
// Marked; the exchange writes Lead back in place.
type EpisodeEntry struct {
	// Principal is the handle from FleetVT.Principal.
	Principal PrincipalID
	// Charge is the weighted normalized work charged this episode (zero
	// for active-but-denied or idle principals).
	Charge Work
	// Active reports whether the principal was backlogged at the
	// barrier. Only meaningful when Marked is set.
	Active bool
	// Marked selects whether this entry updates the principal's
	// activity state on the reporting device. Charge-only entries
	// (Marked false) fold work without touching activity.
	Marked bool
	// Lead is filled by the exchange: the principal's fleet-wide
	// virtual-time lead over the system virtual time after the episode.
	Lead Work
}

// FleetVT is the fleet-wide virtual-time exchange of a multi-device
// deployment. A per-device DisengagedFairQueueing instance reports, at
// the end of each engagement episode, one batch entry per principal
// (keyed by the uint32 handle from Principal — task names, the identity
// stable across devices, are interned once): the estimated usage it
// charged and whether the principal was active at the barrier. The
// exchange folds the charges into fleet-wide virtual times, advances
// the fleet-wide system virtual time, and writes each entry's lead over
// it back into the batch. The scheduler denies the next free run to
// principals whose lead reaches its free-run horizon — so a tenant
// consuming on several devices at once is throttled everywhere, not
// only where it happens to be sampled.
//
// The batch is a reusable slice owned by the reporter: the exchange
// must not retain it past the call. A batch holds at most one entry per
// principal: Ledger.Episode folds same-named tasks into one entry first
// (it sums their charges and ORs their activity). The exchange does not
// merge duplicates; their marks would apply in batch order.
//
// All quantities are in weighted normalized Work, not device time: each
// device scales its charges by its own class speed and divides by the
// consuming task's fair-share weight before reporting, so the board
// compares like with like even when the fleet mixes generations and
// tenants hold unequal contractual shares.
type FleetVT interface {
	// Principal interns a task name, returning its stable handle.
	Principal(name string) PrincipalID
	// ReconcileEpisodeBatch folds one device episode into the fleet
	// virtual times and writes each entry's Lead in place.
	ReconcileEpisodeBatch(device string, batch []EpisodeEntry)
}

// The paper's fixed Section 5.2 calibration.
const (
	// SampleRequestsMulti is the sampling run's request target for tasks
	// with multiple channels (combined compute/graphics applications).
	SampleRequestsMulti = 96
	// DefaultEstimate seeds a task's request-size estimate before its
	// first successful sampling run.
	DefaultEstimate = 100 * time.Microsecond
)

// DefaultDFQConfig returns the paper's configuration.
func DefaultDFQConfig() DFQConfig {
	return DFQConfig{
		SamplePeriod:      5 * time.Millisecond,
		SampleRequests:    32,
		FreeRunMultiplier: 5,
	}
}

// dfqMode is the phase of the engagement/free-run cycle.
type dfqMode int

const (
	dfqBarrier dfqMode = iota
	dfqSampling
	dfqFreeRun
)

// dfqTask is the per-task scheduler state. The task's virtual time —
// its estimated cumulative usage in normalized work units divided by
// its fair-share weight (probabilistically updated, per the paper) —
// lives in the scheduler's Ledger, addressed by the flowTask's flow.
type dfqTask struct {
	flowTask
	// est is the estimated mean request service time from the most recent
	// successful sampling run.
	est sim.Duration
	// lastCompleted is the reference-counter fingerprint at the previous
	// barrier, for per-interval completion deltas.
	lastCompleted int64
	// activeAtBarrier records whether the task had work at barrier entry.
	activeAtBarrier bool
	// sampledRequests is the last sampling run's observation count.
	sampledRequests int
}

// DisengagedFairQueueing is the paper's Section 3.3 scheduler: a fair
// queueing variant that avoids per-request interception. Requests run
// with direct device access during long free-run periods; fairness is
// maintained by periodic engagement episodes — a submission barrier, a
// drain, a short exclusive sampling run per active task to estimate mean
// request size, then virtual-time maintenance that may deny fast-running
// tasks access to the next free run.
//
// The usage estimator deliberately reproduces the prototype's assumption
// of round-robin device arbitration: an interval's busy time is
// attributed to active tasks in proportion to their mean sampled request
// sizes. When the device does not serve channels uniformly (graphics
// penalty), or when a task keeps only some of its channels busy, the
// estimate is wrong in exactly the ways Section 5.3 reports. See
// OracleFairQueueing for the vendor-statistics alternative.
type DisengagedFairQueueing struct {
	fairQueue[dfqTask, *dfqTask]
	cfg DFQConfig

	k         *neon.Kernel
	mode      dfqMode
	sampled   *neon.Task
	admitGate *sim.Gate
	speed     float64 // charge speed: the device's class speed, or 1 under RawCharges

	// The engagement/free-run cycle runs on c (see cycle). Between its
	// steps it keeps the barrier's task snapshot, the next task to
	// consider for sampling and the episode's timing.
	c                     *sim.Cont
	live                  []*neon.Task
	next, sampledCount    int
	lastBarrier, engStart sim.Time
	window                sim.Duration

	cycleFn, admittedFn, sampleNextFn, computedFn func()
	sampleDoneFn                                  func(neon.SampleResult)

	// Cycles counts completed engagement episodes, for tests.
	Cycles int64
	// Denials counts task-intervals denied, for tests.
	Denials int64
}

// NewDisengagedFairQueueing returns the scheduler with the given
// configuration; zero fields are replaced by defaults. Virtual-time
// state lives in a Ledger.
func NewDisengagedFairQueueing(cfg DFQConfig) *DisengagedFairQueueing {
	def := DefaultDFQConfig()
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = def.SamplePeriod
	}
	if cfg.SampleRequests <= 0 {
		cfg.SampleRequests = def.SampleRequests
	}
	if cfg.FreeRunMultiplier <= 0 {
		cfg.FreeRunMultiplier = def.FreeRunMultiplier
	}
	d := &DisengagedFairQueueing{cfg: cfg}
	d.fleet = cfg.Fleet
	return d
}

// Name implements neon.Scheduler.
func (d *DisengagedFairQueueing) Name() string { return "disengaged-fair-queueing" }

// Config returns the active configuration.
func (d *DisengagedFairQueueing) Config() DFQConfig { return d.cfg }

// SystemVirtualTime returns the system-wide virtual time in normalized
// work.
func (d *DisengagedFairQueueing) SystemVirtualTime() Work { return d.ledger.SysVT() }

// Estimate returns the task's sampled mean request size, for tests.
func (d *DisengagedFairQueueing) Estimate(t *neon.Task) sim.Duration {
	if s := d.st.get(t); s != nil {
		return s.est
	}
	return 0
}

// Start implements neon.Scheduler: the engagement/free-run cycle
// starts at the back of the current instant.
func (d *DisengagedFairQueueing) Start(k *neon.Kernel) {
	d.k = k
	d.speed = 1
	if !d.cfg.RawCharges {
		d.speed = k.Device().ClassSpeed()
	}
	d.admitGate = k.Engine().NewGate("dfq-admit")
	d.c = k.Engine().NewCont()
	d.cycleFn, d.admittedFn, d.sampleNextFn, d.computedFn = d.cycle, d.admitted, d.sampleNext, d.computed
	d.sampleDoneFn = d.sampleDone
	d.lastBarrier = k.Engine().Now()
	d.c.Yield(d.cycleFn)
}

// TaskAdmitted implements neon.Scheduler.
func (d *DisengagedFairQueueing) TaskAdmitted(t *neon.Task) {
	d.admit(t).est = DefaultEstimate
	d.admitGate.Broadcast()
}

// ChannelActivated implements neon.Scheduler: new channels are mapped
// directly only while their task is free to run.
func (d *DisengagedFairQueueing) ChannelActivated(cs *neon.ChannelState) {
	cs.Ch.Reg.SetPresent(d.mayRun(cs.Task))
}

// Admit implements neon.Admitter: submissions from barriered or denied
// tasks wait; the sampled task and free-running tasks proceed.
func (d *DisengagedFairQueueing) Admit(t *neon.Task) bool { return d.mayRun(t) }

// mayRun reports whether the task's submissions may currently proceed.
func (d *DisengagedFairQueueing) mayRun(t *neon.Task) bool {
	switch d.mode {
	case dfqSampling:
		return t == d.sampled
	case dfqFreeRun:
		return !d.Denied(t)
	default: // barrier
		return false
	}
}

// cycle is the engagement/free-run cycle of Figure 3, one step of c
// per wake-up: it waits for a first task, or raises the barrier and
// drains, samples the tasks that issued work (sampleNext, sampleDone),
// maintains virtual time (computed) and sleeps out the disengaged free
// run before the next barrier.
func (d *DisengagedFairQueueing) cycle() {
	live := d.k.Tasks()
	if len(live) == 0 {
		d.c.Wait(d.admitGate, d.admittedFn)
		return
	}

	// --- Barrier: stop new submissions everywhere, then drain. ---
	d.engStart = d.k.Engine().Now()
	d.window = d.engStart.Sub(d.lastBarrier)
	d.lastBarrier = d.engStart
	d.mode = dfqBarrier
	d.k.EngageAll()
	for _, t := range live {
		s := d.st.get(t)
		s.activeAtBarrier = t.PendingRequests() > 0 || t.Gate().Waiters() > 0
	}
	d.live, d.next, d.sampledCount = live, 0, 0
	d.k.DrainOn(d.c, live, d.sampleNextFn)
}

// admitted follows the wait for a first task: the idle time before it
// is no engagement window.
func (d *DisengagedFairQueueing) admitted() {
	d.lastBarrier = d.k.Engine().Now()
	d.cycle()
}

// sampleNext follows the drain and each sampling run: it starts a
// sampling run for the next task that issued work last interval, or,
// once none is left, sleeps the scheduler's compute.
func (d *DisengagedFairQueueing) sampleNext() {
	for d.next < len(d.live) {
		t := d.live[d.next]
		d.next++
		if !t.Alive {
			continue
		}
		s := d.st.get(t)
		completed := t.CompletedRequests()
		issued := completed > s.lastCompleted
		s.lastCompleted = completed
		if !issued && !s.activeAtBarrier {
			continue // do not waste sampling time on idle tasks
		}
		if t.Virtualized() && len(t.Channels()) == 0 {
			// Detached logical context: no hardware channels exist to
			// intercept, so a sampling run could observe nothing. The
			// completion bookkeeping above still advanced.
			continue
		}
		d.sampledCount++
		want := d.cfg.SampleRequests
		if len(t.Channels()) > 1 {
			want = SampleRequestsMulti
		}
		d.mode = dfqSampling
		d.sampled = t
		t.Gate().Broadcast()
		d.k.SampleOn(d.c, t, d.cfg.SamplePeriod, want, d.sampleDoneFn)
		return
	}
	d.live = nil

	// --- Virtual time maintenance and scheduling decision. ---
	d.c.Sleep(d.k.Costs().SchedulerCompute, d.computedFn)
}

// sampleDone updates the sampled task's estimate and moves on. A task
// that exited mid-sample has no record left to update.
func (d *DisengagedFairQueueing) sampleDone(res neon.SampleResult) {
	t := d.sampled
	d.sampled = nil
	d.mode = dfqBarrier
	if s := d.st.get(t); s != nil {
		s.sampledRequests = res.Requests
		if m := res.Mean(); m > 0 {
			s.est = m
		} else if t.PendingRequests() > 0 && res.Elapsed > s.est {
			// The task kept the device busy for the whole window
			// without completing anything: its requests are at least
			// as long as the window. Observable from the reference
			// counters alone.
			s.est = res.Elapsed
		}
	}
	d.sampleNext()
}

// computed ends the engagement episode and starts the disengaged free
// run. The episode (Ledger.Episode) charges each active task that was
// permitted to run its estimated share of the interval, in proportion
// to the mean sampled request sizes — the round-robin arbitration
// assumption — converted to normalized work at the device's class
// speed and divided by the task's fair-share weight, so ledgers stay
// comparable across a mixed fleet and service under contention is
// proportional to weight. Tasks that spent the interval denied
// consumed nothing and are charged nothing, but still count as active
// (they are waiting, not idle), so they neither forfeit nor accrue
// credit. A task whose lead reaches the free run (fleet-wide with a
// fleet exchange) sits the free run out: even an exclusive interval
// would not let the slowest task catch past it, and the free run in
// work is what the device could complete while it waits.
func (d *DisengagedFairQueueing) computed() {
	engElapsed := d.k.Engine().Now().Sub(d.engStart)
	nominal := d.cfg.SamplePeriod * sim.Duration(max(1, d.sampledCount))
	freeRun := sim.Duration(d.cfg.FreeRunMultiplier) * max(engElapsed, nominal)
	tasks := d.k.Tasks()
	es := d.entries[:0]
	for _, t := range tasks {
		s := d.st.get(t)
		es = append(es, Entry{Flow: s.flow, Principal: s.pid, Weight: t.ShareWeight(),
			Active: s.activeAtBarrier, Denied: s.denied, Use: s.est})
	}
	d.entries = es
	d.ledger.Episode(es, EpisodeParams{Window: d.window, Horizon: freeRun, Speed: d.speed,
		Fleet: d.fleet, Device: d.k.Device().Name()})

	// --- Disengaged free run. ---
	d.mode = dfqFreeRun
	for i, t := range tasks {
		s := d.st.get(t)
		if s.denied = es[i].Denied; s.denied {
			d.Denials++
			continue
		}
		d.k.Disengage(t)
		t.Gate().Broadcast()
	}
	d.Cycles++
	d.c.Sleep(freeRun, d.cycleFn)
}

var (
	_ neon.Scheduler = (*DisengagedFairQueueing)(nil)
	_ neon.Admitter  = (*DisengagedFairQueueing)(nil)
)
