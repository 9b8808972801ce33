package traffic

import (
	"testing"

	"repro/internal/workload"
)

// Boundary: an arrival at exactly MaxDepth is shed (the bound is the
// first refused depth), one below is admitted.
func TestAdmissionDepthBoundary(t *testing.T) {
	a := Admission{MaxDepth: 4}
	if !a.AdmitTier(workload.TierStandard, 3) {
		t.Error("depth MaxDepth-1 must be admitted")
	}
	if a.AdmitTier(workload.TierStandard, 4) {
		t.Error("depth exactly MaxDepth must be shed")
	}
	if a.AdmitTier(workload.TierStandard, 5) {
		t.Error("depth past MaxDepth must be shed")
	}
	if a.Admitted != 1 || a.Shed != 2 {
		t.Errorf("counters admitted=%d shed=%d, want 1/2", a.Admitted, a.Shed)
	}
	if got := a.ShedRate(); got != 2.0/3.0 {
		t.Errorf("ShedRate = %v, want 2/3", got)
	}
}

// Counter reset mid-window: ResetStats must zero every counter and
// subsequent decisions must count from scratch.
func TestAdmissionResetMidWindow(t *testing.T) {
	a := Admission{MaxDepth: 2}
	a.AdmitTier(workload.TierBestEffort, 0)
	a.AdmitTier(workload.TierBestEffort, 5)
	a.AdmitTier(workload.TierStandard, 5)
	if a.Admitted != 1 || a.Shed != 2 {
		t.Fatalf("pre-reset admitted=%d shed=%d, want 1/2", a.Admitted, a.Shed)
	}
	a.ResetStats()
	if a.Admitted != 0 || a.Shed != 0 || a.ShedRate() != 0 {
		t.Errorf("reset left admitted=%d shed=%d rate=%v", a.Admitted, a.Shed, a.ShedRate())
	}
	if !a.AdmitTier(workload.TierStandard, 1) || a.AdmitTier(workload.TierStandard, 2) {
		t.Error("post-reset decisions wrong")
	}
	if a.Admitted != 1 || a.Shed != 1 {
		t.Errorf("post-reset counters admitted=%d shed=%d, want 1/1", a.Admitted, a.Shed)
	}
}

// Disabled controllers (MaxDepth <= 0, no overrides) admit everything
// and count nothing, so an admission-off run is distinguishable from an
// enabled controller that simply never shed.
func TestAdmissionDisabledCountsNothing(t *testing.T) {
	a := Admission{}
	if a.Enabled() {
		t.Fatal("zero-value Admission must be disabled")
	}
	for depth := 0; depth < 1000; depth += 100 {
		for _, tier := range workload.Tiers() {
			if !a.AdmitTier(tier, depth) {
				t.Fatalf("disabled controller shed %s at depth %d", tier, depth)
			}
		}
	}
	if a.Admitted != 0 || a.Shed != 0 {
		t.Errorf("disabled controller counted decisions: admitted=%d shed=%d", a.Admitted, a.Shed)
	}
}

// Tier ordering: best-effort sheds at half the standard bound, premium
// only past 1.25x of it — so a rising queue refuses best-effort first,
// then standard, then premium.
func TestAdmissionTierBoundsOrdered(t *testing.T) {
	a := Admission{MaxDepth: 96}
	be, std, prem := a.Bound(workload.TierBestEffort), a.Bound(workload.TierStandard), a.Bound(workload.TierPremium)
	if be != 48 || std != 96 || prem != 120 {
		t.Fatalf("bounds be=%d std=%d prem=%d, want 48/96/120", be, std, prem)
	}
	// Depth between the best-effort and standard bounds: only
	// best-effort is refused.
	depth := 60
	if a.AdmitTier(workload.TierBestEffort, depth) {
		t.Error("best-effort admitted past its bound")
	}
	if !a.AdmitTier(workload.TierStandard, depth) || !a.AdmitTier(workload.TierPremium, depth) {
		t.Error("standard/premium shed below their bounds")
	}
	// Depth between the standard and premium bounds: premium still goes.
	depth = 100
	if a.AdmitTier(workload.TierStandard, depth) {
		t.Error("standard admitted past its bound")
	}
	if !a.AdmitTier(workload.TierPremium, depth) {
		t.Error("premium shed below its bound")
	}
	if a.AdmitTier(workload.TierPremium, 120) {
		t.Error("premium admitted at its bound")
	}
	if a.Admitted != 3 || a.Shed != 3 {
		t.Errorf("counters admitted=%d shed=%d, want 3/3", a.Admitted, a.Shed)
	}
	// The empty tier is the standard tier.
	if a.Bound(workload.Tier("")) != 96 {
		t.Error("empty tier must resolve to the standard bound")
	}
	// Even at tiny bounds the tiers stay strictly ordered: premium keeps
	// at least one slot of shed-last headroom over standard.
	tiny := Admission{MaxDepth: 3}
	if p, s := tiny.Bound(workload.TierPremium), tiny.Bound(workload.TierStandard); p <= s {
		t.Errorf("MaxDepth 3: premium bound %d not above standard %d", p, s)
	}
}

// Explicit overrides win over the derived defaults and enable the
// controller on their own.
func TestAdmissionTierDepthOverrides(t *testing.T) {
	a := Admission{TierDepths: map[workload.Tier]int{workload.TierBestEffort: 3}}
	if !a.Enabled() {
		t.Fatal("TierDepths alone must enable the controller")
	}
	if a.Bound(workload.TierBestEffort) != 3 {
		t.Errorf("override bound = %d, want 3", a.Bound(workload.TierBestEffort))
	}
	// Tiers without an override and without MaxDepth are unbounded.
	if a.Bound(workload.TierStandard) != 0 {
		t.Errorf("standard bound = %d, want 0 (unbounded)", a.Bound(workload.TierStandard))
	}
	if a.AdmitTier(workload.TierBestEffort, 3) {
		t.Error("override not applied")
	}
	if !a.AdmitTier(workload.TierStandard, 1000) {
		t.Error("unbounded tier must admit at any depth")
	}
}

// TierDepths keys normalize exactly like tier arguments do: a map built
// with the zero-value tier (the "standard" spelling used everywhere
// else in the workload package) must bound standard arrivals. This
// regressed silently before: Bound normalized its argument but looked
// the map up verbatim, so a zero-keyed override was never found and the
// controller fell back to the MaxDepth-derived default.
func TestAdmissionTierDepthKeyNormalization(t *testing.T) {
	a := Admission{MaxDepth: 96, TierDepths: map[workload.Tier]int{workload.Tier(""): 7}}
	if got := a.Bound(workload.TierStandard); got != 7 {
		t.Errorf("zero-keyed override ignored: Bound(standard) = %d, want 7", got)
	}
	if got := a.Bound(workload.Tier("")); got != 7 {
		t.Errorf("zero-keyed override ignored: Bound(\"\") = %d, want 7", got)
	}
	// The alias must not leak across tiers.
	if got := a.Bound(workload.TierBestEffort); got != 48 {
		t.Errorf("best-effort bound = %d, want the derived 48", got)
	}
	if a.AdmitTier(workload.TierStandard, 7) {
		t.Error("standard arrival at the overridden bound must shed")
	}
	// When both spellings are present the canonical key wins.
	both := Admission{TierDepths: map[workload.Tier]int{
		workload.Tier(""):       5,
		workload.TierStandard:   11,
		workload.TierBestEffort: 2,
	}}
	if got := both.Bound(workload.TierStandard); got != 11 {
		t.Errorf("canonical key must win over the alias: got %d, want 11", got)
	}
}
