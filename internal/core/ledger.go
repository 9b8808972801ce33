package core

import (
	"slices"

	"repro/internal/sim"
)

// Entry is one flow's row in an engagement episode (Ledger.Episode).
// The caller fills every field but Lead, in a slice it reuses; the
// episode writes Lead and replaces Denied. A flow may have more than
// one entry: each is marked and charged on its own.
type Entry struct {
	// Flow is the flow's handle in the ledger.
	Flow FlowID
	// Principal is the flow's fleet handle (FleetVT.Principal), read
	// only when the episode reports to a fleet.
	Principal PrincipalID
	// Active reports the flow backlogged: it takes part in the system
	// virtual time's minimum and in the lead-bound check.
	Active bool
	// Denied is the denial the flow ran under. The episode replaces it
	// with the denial of the next run: the lead reached the horizon.
	Denied bool
	// Weight is the fair-share weight the entry's charge is divided by
	// (PerWeight).
	Weight float64
	// Use is the charge input: the flow's estimated request size, whose
	// share of the charged entries' estimates splits the window, or,
	// with EpisodeParams.Measured, the device time the flow used.
	Use sim.Duration
	// Lead is written by the episode: the flow's lead over the system
	// virtual time, fleet-wide when the episode reports to a fleet.
	Lead Work
}

// EpisodeParams describes one engagement episode.
type EpisodeParams struct {
	// Window is the device time the episode accounts for.
	Window sim.Duration
	// Horizon is the run ahead: an entry whose lead reaches it, in work,
	// is denied that run.
	Horizon sim.Duration
	// Speed converts device time to work (WorkFor).
	Speed float64
	// Measured charges each entry its Use as measured. Otherwise the
	// window is split among the charged entries (active and not denied)
	// in proportion to their Use: the paper's estimate, which assumes
	// round-robin arbitration.
	Measured bool
	// Fleet, when non-nil, receives the episode's charges folded by
	// principal, reported as Device, and its fleet-wide leads decide the
	// denials.
	Fleet  FleetVT
	Device string
}

// Ledger is a fair-queueing ledger: a FlowIndex, the routine that ends
// every engagement episode (Episode), and the lead-bound record the
// episodes keep. DisengagedFairQueueing, OracleFairQueueing and the
// scale experiment's harness each keep one per device; they fill
// entries and call Episode, and none of them charges, advances or
// denies on its own.
type Ledger struct {
	FlowIndex

	// The lead-bound record (see LeadBound).
	maxLead, maxHorizon, maxWindow Work
	violations                     int64

	// batch is the reusable fleet report, one row per principal, and
	// row maps a principal to its row plus one while an episode folds
	// (zero otherwise).
	batch []EpisodeEntry
	row   []int32
}

// Grow pre-sizes the index for n flows and the fleet fold for
// principals below n, so a known population folds without growing.
func (l *Ledger) Grow(n int) {
	l.FlowIndex.Grow(n)
	l.row = slices.Grow(l.row, n)
}

// Episode ends one engagement episode over es: the paper's per-episode
// steps (Section 3.3), as every fair-queueing caller takes them.
//
//  1. Mark each entry's activity, then charge it, in work at p.Speed
//     divided by its weight: its Use as measured, or its share of the
//     window. A denied entry's share is nothing: it did not run.
//  2. Advance the system virtual time to the oldest active virtual
//     time. Idle flows forfeit unused credit lazily (FlowIndex).
//  3. Check each active entry's lead against LeadBound, fold the
//     entries by principal into the fleet exchange if there is one,
//     and write each entry's Lead and its denial of the next run.
//
// The order of marking and charging does not matter: an active flow's
// virtual time is never below the system virtual time, so a mark
// clamps an idle flow exactly as a charge does, whichever comes first.
// Once es, the fold and the index have grown, Episode allocates
// nothing.
func (l *Ledger) Episode(es []Entry, p EpisodeParams) {
	var useSum sim.Duration
	charged, minWeight := 0, 1.0
	for i := range es {
		e := &es[i]
		l.SetActive(e.Flow, e.Active)
		if p.Measured && e.Use > 0 || !p.Measured && e.Active && !e.Denied {
			if charged == 0 || e.Weight < minWeight {
				minWeight = e.Weight
			}
			charged++
			useSum += e.Use
		}
	}
	for i := range es {
		e := &es[i]
		var use sim.Duration
		switch {
		case p.Measured:
			use = e.Use
		case e.Active && !e.Denied && useSum > 0:
			use = sim.Duration(float64(p.Window) * float64(e.Use) / float64(useSum))
		}
		charge := PerWeight(WorkFor(use, p.Speed), e.Weight)
		l.Charge(e.Flow, charge)
		if p.Fleet != nil {
			l.fold(e, charge)
		}
	}
	l.AdvanceSysVT()

	// After the charges and the advance, every active lead must sit
	// within LeadBound: an entry charged now was under an earlier
	// horizon (or it would have been denied), and one episode charges
	// it at most the window over the lightest charged weight. This
	// episode's window joins the bound before the check; its horizon
	// only after, since nothing has run under it yet.
	l.maxWindow = max(l.maxWindow, PerWeight(WorkFor(p.Window, p.Speed), minWeight))
	for i := range es {
		e := &es[i]
		e.Lead = l.Lead(e.Flow)
		if e.Active {
			l.maxLead = max(l.maxLead, e.Lead)
			if e.Lead > l.maxHorizon+l.maxWindow {
				l.violations++
			}
		}
	}
	horizon := WorkFor(p.Horizon, p.Speed)
	l.maxHorizon = max(l.maxHorizon, horizon)

	// With a fleet exchange the denials use fleet-wide leads, this
	// device's charges folded with every other device's, so a principal
	// gains nothing by spreading across devices.
	if p.Fleet != nil {
		p.Fleet.ReconcileEpisodeBatch(p.Device, l.batch)
		for i := range es {
			es[i].Lead = l.batch[l.row[es[i].Principal]-1].Lead
		}
		for _, b := range l.batch {
			l.row[b.Principal] = 0
		}
		l.batch = l.batch[:0]
	}
	for i := range es {
		es[i].Denied = es[i].Lead >= horizon
	}
}

// fold adds an entry's charge and activity to its principal's row of
// the fleet report. The exchange takes one row per principal, so
// entries of one principal (same-named tasks, a tenant picked twice)
// sum their charges and OR their activity.
func (l *Ledger) fold(e *Entry, charge Work) {
	for int(e.Principal) >= len(l.row) {
		l.row = append(l.row, 0)
	}
	r := &l.row[e.Principal]
	if *r == 0 {
		l.batch = append(l.batch, EpisodeEntry{Principal: e.Principal, Marked: true})
		*r = int32(len(l.batch))
	}
	b := &l.batch[*r-1]
	b.Charge += charge
	b.Active = b.Active || e.Active
}

// MaxLead returns the largest lead an active entry has held over the
// system virtual time after an episode, in normalized work.
func (l *Ledger) MaxLead() Work { return l.maxLead }

// LeadViolations counts the active entries whose lead exceeded
// LeadBound after an episode: zero unless fairness is broken.
func (l *Ledger) LeadViolations() int64 { return l.violations }

// LeadBound returns the fairness bound the denial rule enforces: an
// active flow's virtual time may lead the system virtual time by at
// most one horizon (past which it is denied and, if it does not run,
// stops being charged) plus one window divided by the lightest charged
// weight (the most its ledger can advance in the episode that pushes
// it over), both in normalized work at the episode's speed. Both terms
// vary per episode, so the bound is stated over the largest observed
// values. TestDFQLeadBoundInvariant, TestWeightedDFQLeadBoundInvariant
// and TestOracleLeadBoundInvariant assert MaxLead never exceeds it, and
// TestEpisodeLeadBoundCheckFires shows the check counting.
//
// Dynamic-weight contract: the bound stays valid when weights change
// mid-run (the policy layer's round-based allocator rewrites
// neon.Task.Weight between rounds). Callers read weights afresh into
// every episode's entries, each episode's window term uses that
// episode's own lightest charged weight and joins the bound before the
// episode's check, and past charges are never restated: a re-weight
// changes future charging rates only. Writers must keep weights
// positive and finite (workload.TenantSpec.Validate; the policy
// layer's min-1 normalization additionally keeps the lightest weight
// at 1, so the window term never exceeds the unweighted scheduler's).
// TestReweightingPreservesLeadBound churns weights through the live
// allocator and asserts the invariant end to end.
func (l *Ledger) LeadBound() Work { return l.maxHorizon + l.maxWindow }
