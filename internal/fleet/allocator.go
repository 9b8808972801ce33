package fleet

import (
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
)

// DefaultAllocEvery is the allocator's fixed round period: long against
// the DFQ sampling period (so the mechanism settles between rounds),
// short against experiment measurement windows (so targets take effect
// well inside warmup).
const DefaultAllocEvery = 5 * sim.Duration(time.Millisecond)

// allocator is the round-based enforcement half of the policy/mechanism
// split: every DefaultAllocEvery it snapshots the tenant×class matrix,
// asks the policy for targets, and pushes them into the existing
// machinery — effective DFQ weights through Tenant.setAllocWeight (the
// ledgers read Task.Weight at every charging step, so re-weighting is a
// plain store; see the dynamic-weight contract in core/dfq.go) and
// class-preference hints the fastest-fit placement consumes. It
// computes nothing itself: policies decide, the weighted-DFQ/placement/
// admission mechanisms the repo already had enforce.
type allocator struct {
	f   *Fleet
	pol policy.Policy
}

// start schedules the recurring allocation rounds. The first round runs
// one period in — tenant populations are launched after fleet
// construction, and policies are round-based approximations by design.
func (a *allocator) start() {
	var tick func()
	tick = func() {
		a.round()
		a.f.eng.After(DefaultAllocEvery, tick)
	}
	a.f.eng.After(DefaultAllocEvery, tick)
}

// round recomputes targets and applies them. It runs in engine context
// and only reads fleet state and writes weights/hints, so a policy
// whose targets match the live weights (static over an unchanged
// population) leaves the event timeline bit-for-bit unchanged.
func (a *allocator) round() {
	f := a.f
	if len(f.tenants) == 0 {
		return
	}
	snap := f.Snapshot()
	tg := a.pol.Allocate(snap)
	for i, t := range f.tenants {
		if i < len(tg.Weight) && tg.Weight[i] > 0 {
			t.setAllocWeight(tg.Weight[i])
		}
		t.hintClasses = policy.ClassPreference(snap, tg, i)
	}
	f.AllocRounds++
	if f.onTargets != nil {
		f.onTargets(snap, tg)
	}
}

// Snapshot assembles the policy layer's view of the fleet: device
// classes with their populations (in node-index first-appearance
// order, so snapshots are deterministic), and one tenant row per
// registered tenant with its contract terms and offered-demand
// ceiling. Demand is the spec's duty cycle — device time per wall
// second when running unthrottled — scaled by the fleet's fastest
// class speed: the most normalized work the tenant could consume if
// always placed on the fastest device. Open-loop serving tenants
// (no think or off time) are saturating.
func (f *Fleet) Snapshot() policy.Snapshot {
	var classes []policy.Class
	maxSpeed := 0.0
	for _, n := range f.nodes {
		if s := n.Speed(); s > maxSpeed {
			maxSpeed = s
		}
		found := false
		for i := range classes {
			if classes[i].Name == n.Class.Name {
				classes[i].Devices++
				found = true
				break
			}
		}
		if !found {
			classes = append(classes, policy.Class{Name: n.Class.Name, Speed: n.Speed(), Devices: 1})
		}
	}
	tenants := make([]policy.Tenant, len(f.tenants))
	for i, t := range f.tenants {
		spec := t.Spec
		duty := 0.0
		if cycle := spec.ActiveTime() + spec.OffTime(); cycle > 0 {
			duty = float64(spec.GPUTime()) / float64(cycle)
		}
		tenants[i] = policy.Tenant{
			Name:   spec.Name,
			Org:    spec.Org,
			Weight: spec.ShareWeight(),
			Tier:   spec.Tier.Normalize(),
			Demand: duty * maxSpeed,
		}
	}
	return policy.Snapshot{Tenants: tenants, Classes: classes}
}

// OnTargets registers a hook called after every allocation round with
// the snapshot and the targets just applied. The serving layer uses it
// to refresh admission tier bounds from the active policy; tests use
// it to observe rounds. Only one hook is held — last registration
// wins.
func (f *Fleet) OnTargets(fn func(policy.Snapshot, policy.Targets)) { f.onTargets = fn }

// AllocPolicy returns the active allocation policy, nil when the fleet
// runs without the allocator (the pre-policy behavior).
func (f *Fleet) AllocPolicy() policy.Policy { return f.allocPol }
