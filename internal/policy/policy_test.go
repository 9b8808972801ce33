package policy

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// mixedFleet is the three-class snapshot most tests allocate over:
// one reference device, one consumer card, one next-generation part —
// total capacity 3.5 normalized-work/s.
func mixedFleet(tenants ...Tenant) Snapshot {
	return Snapshot{
		Tenants: tenants,
		Classes: []Class{
			{Name: "k20", Speed: 1.0, Devices: 1},
			{Name: "consumer", Speed: 0.5, Devices: 1},
			{Name: "nextgen", Speed: 2.0, Devices: 1},
		},
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestStaticPassthrough pins the static policy's whole contract: spec
// weights come back verbatim (bit-for-bit — the byte-identity of the
// legacy goldens depends on no float round-trip), allocation rows are
// proportional (no class preference), and tier bounds defer to the
// mechanism.
func TestStaticPassthrough(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "a", Weight: 4, Demand: 2},
		Tenant{Name: "b", Weight: 1, Demand: 2},
		Tenant{Name: "c", Weight: 0.25, Demand: 2},
	)
	tg := Static{}.Allocate(s)
	for i, want := range []float64{4, 1, 0.25} {
		if tg.Weight[i] != want {
			t.Errorf("Weight[%d] = %v, want exactly %v", i, tg.Weight[i], want)
		}
	}
	for i := range s.Tenants {
		if pref := ClassPreference(s, tg, i); pref != nil {
			t.Errorf("static gave tenant %d a class preference %v", i, pref)
		}
		want := s.Tenants[i].Weight / 5.25
		if got := tg.Share(s, i); !approx(got, want) {
			t.Errorf("Share(%d) = %v, want %v", i, got, want)
		}
	}
	if b := TierBounds(Static{}, s, tg, 64); b != nil {
		t.Errorf("static TierBounds = %v, want nil (keep mechanism defaults)", b)
	}
}

// TestMaxMinWaterFilling checks the water-fill against a hand-computed
// scenario: a small tenant capped at its own demand, the rest
// splitting the surplus level — and the whole capacity spoken for.
func TestMaxMinWaterFilling(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "small", Weight: 1, Demand: 0.5},
		Tenant{Name: "big1", Weight: 1, Demand: 2},
		Tenant{Name: "big2", Weight: 1, Demand: 2},
	)
	tg := MaxMin{}.Allocate(s)
	// Level: small satisfied at 0.5, remaining 3.0 splits over the two
	// big tenants → 1.5 each.
	wantShares := []float64{0.5 / 3.5, 1.5 / 3.5, 1.5 / 3.5}
	var total float64
	for i, want := range wantShares {
		got := tg.Share(s, i)
		if !approx(got, want) {
			t.Errorf("Share(%d) = %v, want %v", i, got, want)
		}
		total += got
	}
	if !approx(total, 1) {
		t.Errorf("shares sum to %v, want 1 (capacity fully allocated)", total)
	}
	// Min-1 weight normalization: 0.5 : 1.5 : 1.5 → 1 : 3 : 3.
	for i, want := range []float64{1, 3, 3} {
		if !approx(tg.Weight[i], want) {
			t.Errorf("Weight[%d] = %v, want %v", i, tg.Weight[i], want)
		}
	}
}

// TestMaxMinRespectsWeights: with demands unbounded the water level is
// weight-proportional.
func TestMaxMinRespectsWeights(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "a", Weight: 4, Demand: 10},
		Tenant{Name: "b", Weight: 1, Demand: 10},
		Tenant{Name: "c", Weight: 1, Demand: 10},
	)
	tg := MaxMin{}.Allocate(s)
	for i, want := range []float64{4.0 / 6, 1.0 / 6, 1.0 / 6} {
		if got := tg.Share(s, i); !approx(got, want) {
			t.Errorf("Share(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestMaxMinPacksFastestFirst: the largest allocation lands on the
// fastest class, the smallest on the slowest, and ClassPreference
// reports exactly that concentration.
func TestMaxMinPacksFastestFirst(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "small", Weight: 1, Demand: 0.5},
		Tenant{Name: "big1", Weight: 1, Demand: 2},
		Tenant{Name: "big2", Weight: 1, Demand: 2},
	)
	tg := MaxMin{}.Allocate(s)
	// big1 (first 1.5) fills 75% of nextgen; big2 takes the rest of
	// nextgen and all of k20; small ends up on the consumer card.
	if pref := ClassPreference(s, tg, 1); len(pref) != 1 || pref[0] != 2.0 {
		t.Errorf("big1 preference = %v, want [2]", pref)
	}
	if pref := ClassPreference(s, tg, 0); len(pref) != 1 || pref[0] != 0.5 {
		t.Errorf("small preference = %v, want [0.5]", pref)
	}
	// Column sums never exceed 1: no class is over-committed.
	for c := range s.Classes {
		var sum float64
		for i := range s.Tenants {
			sum += tg.Alloc[i][c]
		}
		if sum > 1+1e-9 {
			t.Errorf("class %s over-committed: column sum %v", s.Classes[c].Name, sum)
		}
	}
}

// TestHierarchicalNormalization pins the tree math: org weights split
// the top level, tenant weights split within the org, weights multiply
// down and normalize per sibling group.
func TestHierarchicalNormalization(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "a1", Org: "acme", Weight: 2, Demand: 2},
		Tenant{Name: "a2", Org: "acme", Weight: 1, Demand: 2},
		Tenant{Name: "b1", Org: "bitco", Weight: 1, Demand: 2},
	)
	h := Hierarchical{OrgWeights: map[string]float64{"acme": 3}}
	tg := h.Allocate(s)
	// Top level: acme 3/4, bitco 1/4. Within acme: 2/3 and 1/3.
	for i, want := range []float64{0.5, 0.25, 0.25} {
		if got := tg.Share(s, i); !approx(got, want) {
			t.Errorf("Share(%d) = %v, want %v", i, got, want)
		}
	}
	for i, want := range []float64{2, 1, 1} {
		if !approx(tg.Weight[i], want) {
			t.Errorf("Weight[%d] = %v, want %v", i, tg.Weight[i], want)
		}
	}
}

// TestHierarchicalOrgIsolation is the property flat weights cannot
// express: an org that enrolls more tenants does not grow its
// aggregate share — the newcomers dilute their own org only.
func TestHierarchicalOrgIsolation(t *testing.T) {
	base := []Tenant{
		{Name: "a1", Org: "acme", Weight: 2, Demand: 2},
		{Name: "a2", Org: "acme", Weight: 1, Demand: 2},
		{Name: "b1", Org: "bitco", Weight: 1, Demand: 2},
	}
	crowd := append(append([]Tenant{}, base...),
		Tenant{Name: "b2", Org: "bitco", Weight: 1, Demand: 2},
		Tenant{Name: "b3", Org: "bitco", Weight: 1, Demand: 2},
	)
	h := Hierarchical{OrgWeights: map[string]float64{"acme": 3}}
	acmeShare := func(s Snapshot) float64 {
		tg := h.Allocate(s)
		var sum float64
		for i, ten := range s.Tenants {
			if ten.Org == "acme" {
				sum += tg.Share(s, i)
			}
		}
		return sum
	}
	before := acmeShare(mixedFleet(base...))
	after := acmeShare(mixedFleet(crowd...))
	if !approx(before, after) {
		t.Errorf("acme share moved %v → %v when bitco crowded in", before, after)
	}
	if !approx(before, 0.75) {
		t.Errorf("acme share = %v, want 0.75", before)
	}
}

// TestHierarchicalFlatFallback: an all-org-less population reproduces
// flat proportional shares, so hier without orgs is not a behavior
// change.
func TestHierarchicalFlatFallback(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "a", Weight: 4, Demand: 2},
		Tenant{Name: "b", Weight: 1, Demand: 2},
		Tenant{Name: "c", Weight: 1, Demand: 2},
	)
	tg := Hierarchical{}.Allocate(s)
	for i, want := range []float64{4.0 / 6, 1.0 / 6, 1.0 / 6} {
		if got := tg.Share(s, i); !approx(got, want) {
			t.Errorf("Share(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestCostMinFillsCheapestFirst: under slack the whole demand lands on
// the cheapest price-per-work class (the consumer card at default
// prices).
func TestCostMinFillsCheapestFirst(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "a", Weight: 1, Demand: 0.3},
		Tenant{Name: "b", Weight: 1, Demand: 0.1},
	)
	p := CostMin{}
	tg := p.Allocate(s)
	// Demand 0.4 fits inside the consumer card's 0.5 capacity.
	for i := range s.Tenants {
		if pref := ClassPreference(s, tg, i); len(pref) != 1 || pref[0] != 0.5 {
			t.Errorf("tenant %d preference = %v, want [0.5] (consumer)", i, pref)
		}
	}
	var consumerCol float64
	for i := range s.Tenants {
		consumerCol += tg.Alloc[i][1]
	}
	if !approx(consumerCol, 0.8) {
		t.Errorf("consumer column sum = %v, want 0.8 (0.4 of 0.5 capacity)", consumerCol)
	}
}

// TestCostMinSpillsUpward: demand past the cheap class spills to the
// next cheapest (the reference card) rather than being dropped.
func TestCostMinSpillsUpward(t *testing.T) {
	s := mixedFleet(Tenant{Name: "a", Weight: 1, Demand: 1.2})
	tg := CostMin{}.Allocate(s)
	if got := tg.Share(s, 0); !approx(got, 1.2/3.5) {
		t.Errorf("Share = %v, want %v (full demand served)", got, 1.2/3.5)
	}
	if !approx(tg.Alloc[0][1], 1.0) {
		t.Errorf("consumer fraction = %v, want 1 (cheapest filled first)", tg.Alloc[0][1])
	}
	if !approx(tg.Alloc[0][0], 0.7) {
		t.Errorf("k20 fraction = %v, want 0.7 (spill)", tg.Alloc[0][0])
	}
	if tg.Alloc[0][2] != 0 {
		t.Errorf("nextgen fraction = %v, want 0 (priciest untouched)", tg.Alloc[0][2])
	}
}

// TestShareTierBounds: policies without their own TierBounds get
// bounds proportional to each tier's aggregate target share.
func TestShareTierBounds(t *testing.T) {
	s := mixedFleet(
		Tenant{Name: "p", Weight: 3, Demand: 10, Tier: workload.TierPremium},
		Tenant{Name: "s", Weight: 1, Demand: 10, Tier: workload.TierStandard},
	)
	tg := MaxMin{}.Allocate(s)
	b := TierBounds(MaxMin{}, s, tg, 64)
	if b == nil {
		t.Fatal("no bounds for a non-static policy")
	}
	// Shares 3/4 and 1/4 over two tiers: 64×0.75×2 = 96, 64×0.25×2 = 32.
	if b[workload.TierPremium] != 96 || b[workload.TierStandard] != 32 {
		t.Errorf("bounds = %v, want premium 96, standard 32", b)
	}
	if got := TierBounds(MaxMin{}, s, tg, 0); got != nil {
		t.Errorf("bounds with admission disabled = %v, want nil", got)
	}
}

// TestParse covers the flag surface: every listed name parses, the
// empty string is static, hier takes org weights, junk is an error.
func TestParse(t *testing.T) {
	for _, name := range Names() {
		p, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
		} else if p == nil {
			t.Errorf("Parse(%q) returned nil policy", name)
		}
	}
	if p, err := Parse(""); err != nil || p.Name() != "static" {
		t.Errorf("Parse(\"\") = %v, %v; want static", p, err)
	}
	p, err := Parse("hier:acme=3,bitco=1.5")
	if err != nil {
		t.Fatal(err)
	}
	h := p.(Hierarchical)
	if h.OrgWeights["acme"] != 3 || h.OrgWeights["bitco"] != 1.5 {
		t.Errorf("org weights = %v", h.OrgWeights)
	}
	for _, bad := range []string{"gavel", "hier:acme", "hier:acme=-1", "hier:=2", "cost:x", "maxmin:1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestNormalizeWeightsIdle: tenants the policy allocated nothing keep
// weight 1 (charge like an unweighted tenant), and an all-idle
// population degrades to all-1, never to zero or NaN.
func TestNormalizeWeightsIdle(t *testing.T) {
	w := normalizeWeights([]float64{0, 0.5, 1.0})
	for i, want := range []float64{1, 1, 2} {
		if !approx(w[i], want) {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want)
		}
	}
	for i, w := range normalizeWeights([]float64{0, 0}) {
		if w != 1 {
			t.Errorf("all-idle w[%d] = %v, want 1", i, w)
		}
	}
}
