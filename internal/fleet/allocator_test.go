package fleet

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocFleet builds a mixed-class fleet under the given allocation
// policy and launches three saturating tenants with weights 2, 1, 1.
func allocFleet(t *testing.T, pol policy.Policy) (*sim.Engine, *Fleet) {
	t.Helper()
	eng := sim.NewEngine()
	f, err := New(eng, Config{
		Devices:     3,
		Classes:     []string{"k20", "consumer", "nextgen"},
		Policy:      NewFastestFit(),
		Sched:       "dfq",
		RunLimit:    time.Second,
		Seed:        7,
		AllocPolicy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{2, 1, 1} {
		s := workload.Throttle(200*time.Microsecond, 0)
		s.Name = []string{"a", "b", "c"}[i]
		f.Launch(workload.TenantSpec{Spec: s, Weight: w, Jitter: 0.1})
	}
	return eng, f
}

// TestAllocatorAppliesWeights: under max-min with uniform saturating
// demands, the allocator overrides the spec's 2:1:1 weights with the
// policy's equal-share targets — live tasks re-weight, not just future
// ones — and rounds keep counting.
func TestAllocatorAppliesWeights(t *testing.T) {
	eng, f := allocFleet(t, policy.MaxMin{})
	eng.RunFor(60 * time.Millisecond)
	if f.AllocRounds == 0 {
		t.Fatal("no allocation rounds ran")
	}
	// Equal demands, weights 2:1:1, demand 2.0 each (nextgen ceiling),
	// capacity 3.5: nobody reaches demand, so shares are
	// weight-proportional and min-1 normalization gives 2:1:1 — same as
	// spec here. Check the mechanism wrote them into live tasks.
	for _, ten := range f.Tenants() {
		if ten.allocWeight == 0 {
			t.Fatalf("tenant %s has no allocator weight", ten.Spec.Name)
		}
		for _, task := range ten.tasks {
			if task != nil && task.Weight != ten.EffectiveWeight() {
				t.Fatalf("tenant %s live task weight %v != effective %v",
					ten.Spec.Name, task.Weight, ten.EffectiveWeight())
			}
		}
	}
	a := f.Tenants()[0]
	if a.EffectiveWeight() != 2 {
		t.Errorf("heavy tenant effective weight = %v, want 2", a.EffectiveWeight())
	}
}

// TestAllocatorStaticIsInert: the static policy through the allocator
// must leave every effective weight exactly the spec weight and hint
// nothing — the mechanism equivalence the byte-identity golden test
// checks end-to-end.
func TestAllocatorStaticIsInert(t *testing.T) {
	eng, f := allocFleet(t, policy.Static{})
	eng.RunFor(60 * time.Millisecond)
	if f.AllocRounds == 0 {
		t.Fatal("no allocation rounds ran")
	}
	for _, ten := range f.Tenants() {
		if ten.EffectiveWeight() != ten.Spec.ShareWeight() {
			t.Errorf("tenant %s: effective %v != spec %v",
				ten.Spec.Name, ten.EffectiveWeight(), ten.Spec.ShareWeight())
		}
		if ten.hintClasses != nil {
			t.Errorf("tenant %s: static hinted classes %v", ten.Spec.Name, ten.hintClasses)
		}
	}
}

// TestSnapshotShape: classes aggregate device counts in first-seen
// order, and demand is duty cycle × fastest class speed.
func TestSnapshotShape(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 4, Classes: []string{"k20", "consumer"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sat := workload.Throttle(100*time.Microsecond, 0)
	sat.Name = "sat"
	f.NewTenant(workload.TenantSpec{Spec: sat, Weight: 3, Org: "acme", Tier: workload.TierPremium})
	half := workload.Throttle(100*time.Microsecond, 0.5)
	half.Name = "half"
	f.NewTenant(workload.TenantSpec{Spec: half})

	s := f.Snapshot()
	if len(s.Classes) != 2 || s.Classes[0].Name != "k20" || s.Classes[0].Devices != 2 ||
		s.Classes[1].Name != "consumer" || s.Classes[1].Devices != 2 {
		t.Fatalf("classes = %+v", s.Classes)
	}
	if s.Capacity() != 3.0 {
		t.Errorf("capacity = %v, want 3 (2×1.0 + 2×0.5)", s.Capacity())
	}
	a := s.Tenants[0]
	if a.Org != "acme" || a.Weight != 3 || a.Tier != workload.TierPremium {
		t.Errorf("tenant row = %+v", a)
	}
	// Saturating spec: duty = GPU/(CPU+GPU), fastest class is k20 here.
	duty := float64(sat.GPUTime()) / float64(sat.ActiveTime())
	if got := a.Demand; got != duty {
		t.Errorf("saturating demand = %v, want duty %v", got, duty)
	}
	// Half-duty spec offers about half of that.
	if b := s.Tenants[1]; b.Demand >= a.Demand*0.6 || b.Demand <= 0 {
		t.Errorf("half-duty demand = %v vs saturating %v", b.Demand, a.Demand)
	}
}

// TestOnTargetsHook: the hook observes every round with the applied
// targets.
func TestOnTargetsHook(t *testing.T) {
	eng, f := allocFleet(t, policy.MaxMin{})
	var rounds int
	f.OnTargets(func(s policy.Snapshot, tg policy.Targets) {
		rounds++
		if len(tg.Weight) != len(s.Tenants) || len(s.Tenants) != 3 {
			t.Fatalf("targets shape: %d weights, %d tenants", len(tg.Weight), len(s.Tenants))
		}
	})
	eng.RunFor(30 * time.Millisecond)
	if rounds == 0 {
		t.Fatal("OnTargets never fired")
	}
	if int64(rounds) != f.AllocRounds {
		t.Errorf("hook fired %d times, AllocRounds %d", rounds, f.AllocRounds)
	}
}

// TestFastestFitHonorsHints: a hinted tenant lands on its target class
// while the hint holds, and escapes to the global best once the hinted
// class is 2× worse by effective throughput.
func TestFastestFitHonorsHints(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 3, Classes: []string{"k20", "consumer", "nextgen"},
		Policy: NewFastestFit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Throttle(100*time.Microsecond, 0)
	spec.Name = "hinted"
	ten := f.NewTenant(workload.TenantSpec{Spec: spec})

	// Hint to the consumer class (speed 0.5): the greedy would pick
	// nextgen (speed 2, empty), the hint overrides while within 2×.
	ten.hintClasses = []float64{0.5}
	consumer, nextgen := f.Nodes()[1], f.Nodes()[2]
	if n, _ := f.PlaceRequest(ten); n != consumer {
		t.Fatalf("hinted placement on %s, want %s", n.Device.Name(), consumer.Device.Name())
	}
	// Congest the consumer node past the escape bar: hinted load+1 at
	// least twice the idle global best's 1.
	for i := 0; i < 3; i++ {
		f.addLoad(consumer, 1)
	}
	if n, _ := f.PlaceRequest(ten); n != nextgen {
		t.Fatalf("escape placement on %s, want %s", n.Device.Name(), nextgen.Device.Name())
	}
	// No matching class in the fleet: fall back to the unhinted greedy
	// (k20 and the once-loaded nextgen tie at effective 1.0; the lower
	// index wins, exactly as without hints).
	ten.hintClasses = []float64{3.0}
	k20 := f.Nodes()[0]
	if n, _ := f.PlaceRequest(ten); n != k20 {
		t.Fatalf("unmatched-hint placement on %s, want %s", n.Device.Name(), k20.Device.Name())
	}
}

// TestNewTenantPanicsOnInvalidWeight: the fleet refuses malformed
// contract terms loudly (specs are configuration, not user input) —
// the regression for the silent PerWeight clamp.
func TestNewTenantPanicsOnInvalidWeight(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTenant accepted a negative weight")
		}
	}()
	s := workload.Throttle(100*time.Microsecond, 0)
	s.Name = "bad"
	f.NewTenant(workload.TenantSpec{Spec: s, Weight: -2})
}
