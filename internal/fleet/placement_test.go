package fleet

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// setLoad forces a node's in-flight count through the fleet's load
// accounting, so the fleet-wide queue depth stays consistent with it.
func (f *Fleet) setLoad(n *Node, v int) {
	f.addLoad(n, v-n.inflight)
}

func testFleet(t *testing.T, devices int) *Fleet {
	t.Helper()
	f, err := New(sim.NewEngine(), Config{Devices: devices})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestRoundRobinCycles(t *testing.T) {
	f := testFleet(t, 3)
	p := NewRoundRobin()
	tn := &Tenant{fleet: f}
	for i := 0; i < 7; i++ {
		if got := p.Pick(f, tn); got.Index != i%3 {
			t.Fatalf("pick %d: got node %d, want %d", i, got.Index, i%3)
		}
	}
}

func TestLeastLoadedPicksMinimum(t *testing.T) {
	f := testFleet(t, 4)
	f.setLoad(f.nodes[0], 2)
	f.setLoad(f.nodes[1], 1)
	f.setLoad(f.nodes[2], 1)
	f.setLoad(f.nodes[3], 3)
	p := NewLeastLoaded()
	if got := p.Pick(f, &Tenant{fleet: f}); got.Index != 1 {
		t.Fatalf("got node %d, want 1 (lowest index among minimum load)", got.Index)
	}
}

func TestLeastLoadedTieBreakDeterminism(t *testing.T) {
	// All-equal loads must always resolve to the lowest index: identical
	// fleet states place identically, run after run.
	f := testFleet(t, 4)
	p := NewLeastLoaded()
	for i := 0; i < 10; i++ {
		if got := p.Pick(f, &Tenant{fleet: f}); got.Index != 0 {
			t.Fatalf("iteration %d: got node %d, want 0", i, got.Index)
		}
	}
}

func TestStickyThresholdBoundary(t *testing.T) {
	f := testFleet(t, 2)
	p := NewLocalitySticky(3)
	tn := &Tenant{fleet: f, last: f.nodes[1]}

	// One below the threshold: stick.
	f.setLoad(f.nodes[1], p.Depth-1)
	if got := p.Pick(f, tn); got.Index != 1 {
		t.Fatalf("load %d < depth %d: got node %d, want sticky node 1",
			p.Depth-1, p.Depth, got.Index)
	}

	// Exactly at the threshold: spill to least-loaded.
	f.setLoad(f.nodes[1], p.Depth)
	if got := p.Pick(f, tn); got.Index != 0 {
		t.Fatalf("load %d = depth %d: got node %d, want spill to node 0",
			p.Depth, p.Depth, got.Index)
	}
}

func TestStickyFirstRoundSpills(t *testing.T) {
	f := testFleet(t, 3)
	f.setLoad(f.nodes[0], 1)
	p := NewLocalitySticky(3)
	if got := p.Pick(f, &Tenant{fleet: f}); got.Index != 1 {
		t.Fatalf("first round: got node %d, want least-loaded node 1", got.Index)
	}
}

// heteroFleet builds a fleet whose node classes follow the given names.
func heteroFleet(t *testing.T, classes ...string) *Fleet {
	t.Helper()
	f, err := New(sim.NewEngine(), Config{Devices: len(classes), Classes: classes})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestFastestFitPrefersEffectiveThroughput(t *testing.T) {
	// nextgen (2.0) vs k20 (1.0) vs consumer (0.5), all idle: the
	// fastest class wins outright.
	f := heteroFleet(t, "consumer", "k20", "nextgen")
	p := NewFastestFit()
	if got := p.Pick(f, &Tenant{fleet: f}); got.Index != 2 {
		t.Fatalf("idle fleet: got node %d, want nextgen node 2", got.Index)
	}

	// Queue the fast node until a slower, idler one serves sooner:
	// nextgen at depth 3 scores 2.0/4 = 0.5, k20 idle scores 1.0.
	f.setLoad(f.nodes[2], 3)
	if got := p.Pick(f, &Tenant{fleet: f}); got.Index != 1 {
		t.Fatalf("congested nextgen: got node %d, want idle k20 node 1", got.Index)
	}

	// Equal scores tie-break to the lowest index: two idle k20s.
	tie := heteroFleet(t, "k20", "k20")
	if got := p.Pick(tie, &Tenant{fleet: tie}); got.Index != 0 {
		t.Fatalf("tie: got node %d, want 0", got.Index)
	}
}

// TestPlacementCrossClassTiesGoToLowestIndex pins the tie-break across
// classes: a nextgen node one round deep (2.0/2) and an idle k20 node
// (1.0/1) score alike, and every effective-throughput pick — unhinted,
// hinted toward both classes, and class-aware sticky's upgrade — takes
// the lower index, whichever class sits there.
func TestPlacementCrossClassTiesGoToLowestIndex(t *testing.T) {
	loadNextgen := func(f *Fleet) {
		for _, n := range f.nodes {
			if n.Class.Name == "nextgen" {
				f.setLoad(n, 1)
			}
		}
	}
	for _, classes := range [][]string{{"nextgen", "k20"}, {"k20", "nextgen"}} {
		fleetName := strings.Join(classes, ",")
		f := heteroFleet(t, classes...)
		loadNextgen(f)
		p := NewFastestFit()
		tn := &Tenant{fleet: f}
		if got := p.Pick(f, tn); got.Index != 0 {
			t.Errorf("%s: fastest-fit picked node %d, want 0", fleetName, got.Index)
		}
		// Hints listed against node order, so the hint order cannot
		// stand in for the index order.
		tn.hintClasses = []float64{f.nodes[1].Speed(), f.nodes[0].Speed()}
		if got := p.Pick(f, tn); got.Index != 0 {
			t.Errorf("%s: hinted fastest-fit picked node %d, want 0", fleetName, got.Index)
		}

		// Warm on a consumer node (0.5): both classes clear the 2x bar
		// with room under the depth bound, and score alike.
		up := heteroFleet(t, append([]string{"consumer"}, classes...)...)
		loadNextgen(up)
		warm := &Tenant{fleet: up, last: up.nodes[0]}
		if got := NewClassAwareSticky(3, 2.0).Pick(up, warm); got.Index != 1 {
			t.Errorf("consumer,%s: upgrade picked node %d, want 1", fleetName, got.Index)
		}
	}
}

func TestFastestFitHomogeneousIsLeastLoaded(t *testing.T) {
	f := testFleet(t, 3)
	f.setLoad(f.nodes[0], 2)
	f.setLoad(f.nodes[1], 1)
	f.setLoad(f.nodes[2], 4)
	ff := NewFastestFit()
	ll := NewLeastLoaded()
	if a, b := ff.Pick(f, &Tenant{fleet: f}), ll.Pick(f, &Tenant{fleet: f}); a != b {
		t.Fatalf("homogeneous fleet: fastest-fit picked %d, least-loaded %d", a.Index, b.Index)
	}
}

func TestClassAwareStickyMigratesUpOnly(t *testing.T) {
	f := heteroFleet(t, "consumer", "k20", "nextgen")
	p := NewClassAwareSticky(3, 2.0)

	// Warm on the consumer node (0.5): both k20 (2x) and nextgen (4x)
	// clear the speedup bar; the higher effective throughput wins.
	tn := &Tenant{fleet: f, last: f.nodes[0]}
	if got := p.Pick(f, tn); got.Index != 2 {
		t.Fatalf("warm consumer: got node %d, want nextgen upgrade node 2", got.Index)
	}

	// Warm on k20 (1.0): only nextgen (2x) clears the bar.
	tn.last = f.nodes[1]
	if got := p.Pick(f, tn); got.Index != 2 {
		t.Fatalf("warm k20: got node %d, want nextgen node 2", got.Index)
	}

	// A congested upgrade target is not worth queueing for: stick.
	f.setLoad(f.nodes[2], p.Depth)
	if got := p.Pick(f, tn); got.Index != 1 {
		t.Fatalf("congested upgrade: got node %d, want warm node 1", got.Index)
	}

	// Warm on nextgen: nothing is 2x faster, stick.
	f.setLoad(f.nodes[2], 0)
	tn.last = f.nodes[2]
	if got := p.Pick(f, tn); got.Index != 2 {
		t.Fatalf("warm nextgen: got node %d, want warm node 2", got.Index)
	}

	// Congested warm node spills by effective throughput.
	f.setLoad(f.nodes[2], p.Depth)
	if got := p.Pick(f, tn); got.Index != 1 {
		t.Fatalf("spill: got node %d, want k20 node 1", got.Index)
	}
}

func TestClassAwareStickyHomogeneousSticks(t *testing.T) {
	// With every class equal the speedup bar is unreachable, so the
	// policy behaves exactly like locality-sticky.
	f := testFleet(t, 2)
	p := NewClassAwareSticky(3, 2.0)
	tn := &Tenant{fleet: f, last: f.nodes[1]}
	f.setLoad(f.nodes[1], p.Depth-1)
	if got := p.Pick(f, tn); got.Index != 1 {
		t.Fatalf("got node %d, want sticky node 1", got.Index)
	}
	f.setLoad(f.nodes[1], p.Depth)
	if got := p.Pick(f, tn); got.Index != 0 {
		t.Fatalf("got node %d, want spill node 0", got.Index)
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil || p == nil {
			t.Fatalf("NewPolicy(%q) = %v, %v", name, p, err)
		}
	}
	for alias, want := range map[string]string{
		"round-robin":        "round-robin",
		"ll":                 "least-loaded",
		"locality-sticky":    "locality-sticky",
		"ff":                 "fastest-fit",
		"class-aware-sticky": "class-aware-sticky",
	} {
		p, err := NewPolicy(alias)
		if err != nil || p.Name() != want {
			t.Fatalf("NewPolicy(%q) = %v, %v; want %s", alias, p, err, want)
		}
	}
	_, err := NewPolicy("bogus")
	if err == nil {
		t.Fatal("NewPolicy(bogus) should fail")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name valid policy %q", err, name)
		}
	}
}
