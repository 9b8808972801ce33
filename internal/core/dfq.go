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
	// have been observed.
	SampleRequests int
	// SampleRequestsMulti is the request target for tasks with multiple
	// channels (combined compute/graphics applications).
	SampleRequestsMulti int
	// FreeRunMultiplier scales the disengaged free-run period relative to
	// the engagement episode.
	FreeRunMultiplier int
	// DefaultEstimate seeds a task's request-size estimate before its
	// first successful sampling run.
	DefaultEstimate sim.Duration
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
// fills Principal/Charge/Active/Marked; the exchange writes Lead back
// in place.
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
// principal: reporters fold same-named tasks into one entry first (DFQ
// sums their charges and ORs their activity). The exchange does not
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

// DefaultDFQConfig returns the paper's configuration.
func DefaultDFQConfig() DFQConfig {
	return DFQConfig{
		SamplePeriod:        5 * time.Millisecond,
		SampleRequests:      32,
		SampleRequestsMulti: 96,
		FreeRunMultiplier:   5,
		DefaultEstimate:     100 * time.Microsecond,
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
// lives in the scheduler's FlowIndex, addressed by flow.
type dfqTask struct {
	// flow is the task's slot in the virtual-time ledger.
	flow FlowID
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
	// denied marks the task as excluded from the next free run.
	denied bool
	// pid is the fleet principal handle for the task's name, interned on
	// first fleet report (valid only when pidSet).
	pid    PrincipalID
	pidSet bool
	// charge is this episode's ledger charge, kept per task so the fleet
	// report needs no per-episode map.
	charge Work
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
	cfg DFQConfig

	k         *neon.Kernel
	mode      dfqMode
	sampled   *neon.Task
	st        map[*neon.Task]*dfqTask
	ledger    *FlowIndex
	admitGate *sim.Gate
	speed     float64 // device class speed factor, set at Start

	// The engagement/free-run cycle runs on c (see cycle). Between its
	// steps it keeps the barrier's task snapshot, the next task to
	// consider for sampling, the sampled task's state (kept across the
	// sampling step: the task may die mid-sample) and the episode's
	// timing. active and charged are maintainVirtualTime's scratch.
	c                     *sim.Cont
	live, active, charged []*neon.Task
	next, sampledCount    int
	sampledState          *dfqTask
	lastBarrier, engStart sim.Time
	window                sim.Duration

	cycleFn, admittedFn, sampleNextFn, computedFn func()
	sampleDoneFn                                  func(neon.SampleResult)

	// Cycles counts completed engagement episodes, for tests.
	Cycles int64
	// Denials counts task-intervals denied, for tests.
	Denials int64

	// Lead-bound instrumentation (see LeadBound): the largest
	// virtual-time lead any backlogged task has held over the system
	// virtual time, and the count of episodes where a lead exceeded the
	// bound — zero unless fairness is broken. All in normalized work.
	MaxLead        Work
	LeadViolations int64
	maxFreeRun     Work
	maxWindow      Work

	// batch and batchIdx are the reusable fleet episode report: one
	// entry per distinct principal, rebuilt in place every episode so
	// the steady-state exchange allocates nothing.
	batch    []EpisodeEntry
	batchIdx map[PrincipalID]int32
}

// NewDisengagedFairQueueing returns the scheduler with the given
// configuration; zero fields are replaced by defaults. Virtual-time
// state lives in a FlowIndex.
func NewDisengagedFairQueueing(cfg DFQConfig) *DisengagedFairQueueing {
	def := DefaultDFQConfig()
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = def.SamplePeriod
	}
	if cfg.SampleRequests <= 0 {
		cfg.SampleRequests = def.SampleRequests
	}
	if cfg.SampleRequestsMulti <= 0 {
		cfg.SampleRequestsMulti = def.SampleRequestsMulti
	}
	if cfg.FreeRunMultiplier <= 0 {
		cfg.FreeRunMultiplier = def.FreeRunMultiplier
	}
	if cfg.DefaultEstimate <= 0 {
		cfg.DefaultEstimate = def.DefaultEstimate
	}
	return &DisengagedFairQueueing{
		cfg:    cfg,
		st:     make(map[*neon.Task]*dfqTask),
		ledger: NewFlowIndex(),
	}
}

// Name implements neon.Scheduler.
func (d *DisengagedFairQueueing) Name() string { return "disengaged-fair-queueing" }

// Config returns the active configuration.
func (d *DisengagedFairQueueing) Config() DFQConfig { return d.cfg }

// VirtualTime returns the task's current virtual time in normalized
// work, for tests.
func (d *DisengagedFairQueueing) VirtualTime(t *neon.Task) Work {
	if s := d.st[t]; s != nil {
		return d.ledger.VT(s.flow)
	}
	return 0
}

// SystemVirtualTime returns the system-wide virtual time in normalized
// work.
func (d *DisengagedFairQueueing) SystemVirtualTime() Work { return d.ledger.SysVT() }

// Estimate returns the task's sampled mean request size, for tests.
func (d *DisengagedFairQueueing) Estimate(t *neon.Task) sim.Duration {
	if s := d.st[t]; s != nil {
		return s.est
	}
	return 0
}

// LeadBound returns the fairness bound the denial rule enforces: a
// backlogged task's virtual time may lead the system virtual time by at
// most one free-run horizon (past which it is denied and stops being
// charged) plus one engagement window divided by the lightest charged
// weight (the most any task's ledger can advance in the episode that
// pushes it over), both converted to normalized work at this device's
// class speed. Both terms vary per episode, so the bound is stated over
// the largest observed values. The property tests
// TestDFQLeadBoundInvariant and TestWeightedDFQLeadBoundInvariant
// assert MaxLead never exceeds it.
//
// Dynamic-weight contract: the bound stays valid when weights change
// mid-run (the policy layer's round-based allocator rewrites
// neon.Task.Weight between rounds). Weights are read afresh at every
// charging step — nothing here caches them — each episode's window
// term uses that episode's own lightest *charged* weight and joins
// maxWindow before the episode's lead check, and past charges are
// never restated: a re-weight changes future charging rates only.
// Writers must keep weights positive and finite
// (workload.TenantSpec.Validate; the policy layer's min-1
// normalization additionally keeps the lightest weight at 1, so the
// window term never exceeds the unweighted scheduler's).
// TestReweightingPreservesLeadBound churns weights through the live
// allocator and asserts the invariant end to end.
func (d *DisengagedFairQueueing) LeadBound() Work {
	return d.maxFreeRun + d.maxWindow
}

// Denied reports whether the task is excluded from the current free run.
func (d *DisengagedFairQueueing) Denied(t *neon.Task) bool {
	s := d.st[t]
	return s != nil && s.denied
}

// Start implements neon.Scheduler: the engagement/free-run cycle
// starts at the back of the current instant.
func (d *DisengagedFairQueueing) Start(k *neon.Kernel) {
	d.k = k
	d.speed = k.Device().ClassSpeed()
	d.admitGate = k.Engine().NewGate("dfq-admit")
	d.c = k.Engine().NewCont()
	d.cycleFn, d.admittedFn, d.sampleNextFn, d.computedFn = d.cycle, d.admitted, d.sampleNext, d.computed
	d.sampleDoneFn = d.sampleDone
	d.lastBarrier = k.Engine().Now()
	d.c.Yield(d.cycleFn)
}

// chargeSpeed is the device-time-to-work conversion factor the ledger
// uses: the device's class speed, or 1 under the RawCharges ablation.
func (d *DisengagedFairQueueing) chargeSpeed() float64 {
	if d.cfg.RawCharges {
		return 1
	}
	return d.speed
}

// TaskAdmitted implements neon.Scheduler.
func (d *DisengagedFairQueueing) TaskAdmitted(t *neon.Task) {
	d.st[t] = &dfqTask{est: d.cfg.DefaultEstimate, flow: d.ledger.Add()}
	d.admitGate.Broadcast()
}

// TaskExited implements neon.Scheduler.
func (d *DisengagedFairQueueing) TaskExited(t *neon.Task) {
	if s := d.st[t]; s != nil {
		d.ledger.Remove(s.flow)
	}
	delete(d.st, t)
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
		s := d.st[t]
		return s == nil || !s.denied
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
		s := d.state(t)
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
		s := d.state(t)
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
			want = d.cfg.SampleRequestsMulti
		}
		d.mode = dfqSampling
		d.sampled, d.sampledState = t, s
		t.Gate().Broadcast()
		d.k.SampleOn(d.c, t, d.cfg.SamplePeriod, want, d.sampleDoneFn)
		return
	}
	d.live = nil

	// --- Virtual time maintenance and scheduling decision. ---
	d.c.Sleep(d.k.Costs().SchedulerCompute, d.computedFn)
}

// sampleDone updates the sampled task's estimate and moves on.
func (d *DisengagedFairQueueing) sampleDone(res neon.SampleResult) {
	t, s := d.sampled, d.sampledState
	d.sampled, d.sampledState = nil, nil
	d.mode = dfqBarrier
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
	d.sampleNext()
}

// computed decides the next interval and starts the disengaged free run.
func (d *DisengagedFairQueueing) computed() {
	engElapsed := d.k.Engine().Now().Sub(d.engStart)
	nominal := d.cfg.SamplePeriod * sim.Duration(max(1, d.sampledCount))
	freeRun := sim.Duration(d.cfg.FreeRunMultiplier) * maxDur(engElapsed, nominal)
	d.maintainVirtualTime(d.window, freeRun)

	// --- Disengaged free run. ---
	d.mode = dfqFreeRun
	for _, t := range d.k.Tasks() {
		s := d.state(t)
		if s.denied {
			d.Denials++
			continue
		}
		d.k.Disengage(t)
		t.Gate().Broadcast()
	}
	d.Cycles++
	d.c.Sleep(freeRun, d.cycleFn)
}

// maintainVirtualTime performs the paper's three per-engagement steps:
// advance active tasks' virtual times, advance the system virtual time
// and catch idle tasks up to it, and deny the next interval to tasks too
// far ahead.
//
// Active tasks that were permitted to run are charged the interval in
// proportion to their mean sampled request sizes — the round-robin
// arbitration assumption. The device-time charge is converted to
// normalized work at the device's class speed (see Work) and divided by
// the task's fair-share weight (see PerWeight), so ledgers stay
// comparable across a mixed fleet and service under contention is
// proportional to weight. Tasks that spent the interval denied consumed
// nothing and are charged nothing, but still count as active (they are
// waiting, not idle), so they neither forfeit nor accrue credit.
//
// The bookkeeping itself — where virtual times live, how the active
// minimum is found, when idle flows catch up — is the FlowIndex's: each
// step is O(log active), and TestDifferentialDFQIndex pins that it
// produces the virtual times of the pre-index linear scan.
func (d *DisengagedFairQueueing) maintainVirtualTime(window, freeRun sim.Duration) {
	speed := d.chargeSpeed()
	windowW := WorkFor(window, speed)
	freeRunW := WorkFor(freeRun, speed)

	var estSum sim.Duration
	active, charged := d.active[:0], d.charged[:0]
	minWeight := 1.0
	for _, t := range d.k.Tasks() {
		s := d.state(t)
		s.charge = 0
		d.ledger.SetActive(s.flow, s.activeAtBarrier)
		if s.activeAtBarrier {
			active = append(active, t)
			if !s.denied { // denial state still reflects the last interval
				if len(charged) == 0 || t.ShareWeight() < minWeight {
					minWeight = t.ShareWeight()
				}
				charged = append(charged, t)
				estSum += s.est
			}
		}
	}
	d.active, d.charged = active, charged

	// Step 1: advance each running task's virtual time by its estimated
	// share of the elapsed interval, normalized to work units and scaled
	// down by its weight.
	if estSum > 0 {
		for _, t := range charged {
			s := d.st[t]
			delta := PerWeight(
				WorkFor(sim.Duration(float64(window)*float64(s.est)/float64(estSum)), speed),
				t.ShareWeight())
			d.ledger.Charge(s.flow, delta)
			s.charge = delta
		}
	}

	// Steps 1b and 2: the system virtual time advances to the oldest
	// virtual time among active flows, and idle flows forfeit unused
	// credit — lazily, at next read or activation, which is observably
	// identical to an eager catch-up because the system virtual time is
	// monotone.
	d.ledger.AdvanceSysVT()

	// Instrumentation: after charging and system-virtual-time advance,
	// every backlogged task's lead must sit within LeadBound — it was
	// under the previous free-run horizon when last charged (or it would
	// have been denied), and one episode charges a task at most one
	// window divided by its weight, so the episode's bound contribution
	// is the window over the lightest charged weight. The current window
	// joins the bound before the check; the upcoming free run only
	// after, since no task has run under it yet.
	if episodeW := PerWeight(windowW, minWeight); episodeW > d.maxWindow {
		d.maxWindow = episodeW
	}
	for _, t := range active {
		lead := d.ledger.Lead(d.st[t].flow)
		if lead > d.MaxLead {
			d.MaxLead = lead
		}
		if lead > d.maxFreeRun+d.maxWindow {
			d.LeadViolations++
		}
	}
	if freeRunW > d.maxFreeRun {
		d.maxFreeRun = freeRunW
	}

	// Step 3: deny the next interval to tasks so far ahead that even an
	// exclusive interval would not let the slowest catch past them. The
	// horizon is the free run converted to this device's work rate: what
	// the device could retire while the task sits out. With a fleet
	// exchange attached, the decision uses fleet-wide leads — this
	// device's charges folded with every other device's — so a principal
	// cannot gain extra shares by spreading across devices.
	if d.cfg.Fleet != nil {
		// Build the reusable episode batch: one entry per distinct
		// principal name (same-named tasks fold — charges sum, activity
		// ORs), zero steady-state allocations.
		if d.batchIdx == nil {
			d.batchIdx = make(map[PrincipalID]int32)
		}
		d.batch = d.batch[:0]
		for _, t := range d.k.Tasks() {
			s := d.state(t)
			if !s.pidSet {
				s.pid = d.cfg.Fleet.Principal(t.Name)
				s.pidSet = true
			}
			idx, ok := d.batchIdx[s.pid]
			if !ok {
				idx = int32(len(d.batch))
				d.batch = append(d.batch, EpisodeEntry{Principal: s.pid, Marked: true})
				d.batchIdx[s.pid] = idx
			}
			e := &d.batch[idx]
			e.Charge += s.charge
			e.Active = e.Active || s.activeAtBarrier
		}
		d.cfg.Fleet.ReconcileEpisodeBatch(d.k.Label, d.batch)
		for _, t := range d.k.Tasks() {
			s := d.state(t)
			s.denied = d.batch[d.batchIdx[s.pid]].Lead >= freeRunW
		}
		clear(d.batchIdx)
		return
	}
	for _, t := range d.k.Tasks() {
		s := d.state(t)
		s.denied = d.ledger.Lead(s.flow) >= freeRunW
	}
}

func (d *DisengagedFairQueueing) state(t *neon.Task) *dfqTask {
	s := d.st[t]
	if s == nil {
		s = &dfqTask{est: d.cfg.DefaultEstimate, flow: d.ledger.Add()}
		d.st[t] = s
	}
	return s
}

func maxDur(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}

var (
	_ neon.Scheduler = (*DisengagedFairQueueing)(nil)
	_ neon.Admitter  = (*DisengagedFairQueueing)(nil)
)
