package traffic

import (
	"repro/internal/workload"
)

// Admission is the front-door admission controller: it sheds arriving
// requests while the fleet-wide queue depth (placed-but-unfinished
// requests, including those still waiting in dispatcher queues) is at
// or above the arriving tenant's tier bound. Bounding depth bounds
// queueing delay — under overload the system converts unbounded latency
// growth into an explicit shed rate, which is the difference between a
// brown-out and a melt-down.
//
// Admission is tier-aware: each workload.Tier has its own depth bound,
// so under rising backlog best-effort traffic is refused first, then
// standard, and premium last. MaxDepth is the standard tier's bound and
// the reference the other tiers derive from (see Bound); explicit
// per-tier overrides go in TierDepths. A controller with MaxDepth <= 0
// and no TierDepths is disabled: every arrival is admitted, queues grow
// without bound when offered load exceeds capacity (the serve
// experiment's admission-off rows demonstrate exactly that), and — so a
// disabled controller is never mistaken for an enabled one that simply
// never shed — no decisions are counted.
type Admission struct {
	// MaxDepth is the standard tier's fleet queue-depth bound; <= 0
	// disables shedding (unless TierDepths is set).
	MaxDepth int

	// TierDepths overrides the derived per-tier bounds; a tier absent
	// from the map keeps its MaxDepth-derived default. A non-empty map
	// enables the controller even when MaxDepth <= 0.
	TierDepths map[workload.Tier]int

	// Admitted and Shed count front-door decisions since the last
	// ResetStats. A disabled controller counts nothing. Per-tier shed
	// counts live on the streams (StreamStats.Shed): each stream has
	// exactly one tier.
	Admitted int64
	Shed     int64
}

// Enabled reports whether the controller is making admission decisions
// at all. Disabled controllers admit everything and keep all counters
// at zero.
func (a *Admission) Enabled() bool {
	return a.MaxDepth > 0 || len(a.TierDepths) > 0
}

// Bound returns the queue-depth bound applied to the given tier: the
// TierDepths override if present, otherwise a default derived from
// MaxDepth — best-effort at half of it (shed first), standard at
// exactly it (the pre-tier behavior), premium at 1.25x (a headroom
// band only premium may queue into, so it sheds last). A zero return
// means arrivals of that tier are never shed.
func (a *Admission) Bound(tier workload.Tier) int {
	tier = tier.Normalize()
	if d, ok := a.TierDepths[tier]; ok {
		return d
	}
	// The map's keys normalize too: a caller that builds TierDepths with
	// the zero-value tier (meaning standard, as everywhere else) must
	// bound standard arrivals, not silently fall through to the derived
	// default. A canonical key wins over an alias; among the rest only
	// "" aliases TierStandard, so the scan stays deterministic.
	for k, d := range a.TierDepths {
		if k.Normalize() == tier {
			return d
		}
	}
	if a.MaxDepth <= 0 {
		return 0
	}
	switch tier.Normalize() {
	case workload.TierPremium:
		head := a.MaxDepth / 4
		if head < 1 {
			head = 1 // premium keeps shed-last headroom even at tiny bounds
		}
		return a.MaxDepth + head
	case workload.TierBestEffort:
		d := a.MaxDepth / 2
		if d < 1 {
			d = 1
		}
		return d
	default:
		return a.MaxDepth
	}
}

// AdmitTier decides one arrival of the given tier at the current fleet
// queue depth and records the decision (unless the controller is
// disabled, in which case everything is admitted uncounted).
func (a *Admission) AdmitTier(tier workload.Tier, depth int) bool {
	if !a.Enabled() {
		return true
	}
	if bound := a.Bound(tier); bound > 0 && depth >= bound {
		a.Shed++
		return false
	}
	a.Admitted++
	return true
}

// ShedRate returns the shed fraction of all counted decisions (0 when
// idle or disabled).
func (a *Admission) ShedRate() float64 {
	total := a.Admitted + a.Shed
	if total == 0 {
		return 0
	}
	return float64(a.Shed) / float64(total)
}

// ResetStats clears the decision counters (warmup exclusion).
func (a *Admission) ResetStats() {
	a.Admitted, a.Shed = 0, 0
}
