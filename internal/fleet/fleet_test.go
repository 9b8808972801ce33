package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{Devices: 0}); err == nil {
		t.Fatal("Devices: 0 should fail")
	}
	if _, err := New(sim.NewEngine(), Config{Devices: 1, DFQ: core.DFQConfig{Fleet: NewBoard()}}); err == nil {
		t.Fatal("pre-set DFQ.Fleet should fail: the fleet installs its own board")
	}
	// The board's device mask holds 64 devices: a wider DFQ fleet fails
	// here, naming the limit, instead of panicking mid-run.
	if _, err := New(sim.NewEngine(), Config{Devices: 65}); err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("65 devices under DFQ should fail naming the limit of 64, got %v", err)
	}
	if _, err := New(sim.NewEngine(), Config{Devices: 65, Sched: "ts"}); err != nil {
		t.Fatalf("65 devices under ts have no board to outgrow: %v", err)
	}
	f, err := New(sim.NewEngine(), Config{Devices: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(f.Nodes()) != 3 {
		t.Fatalf("got %d nodes, want 3", len(f.Nodes()))
	}
	for i, n := range f.Nodes() {
		if n.Device.Name() == "" || n.Kernel.Device() != n.Device {
			t.Fatalf("node %d: device name %q, kernel on device %q", i, n.Device.Name(), n.Kernel.Device().Name())
		}
	}
	if f.Nodes()[0].Device.Name() == f.Nodes()[1].Device.Name() {
		t.Fatal("device names must be distinct")
	}
}

func TestFleetClassesCycleOverDevices(t *testing.T) {
	f, err := New(sim.NewEngine(), Config{Devices: 4, Classes: []string{"k20", "consumer"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := []string{"k20", "consumer", "k20", "consumer"}
	for i, n := range f.Nodes() {
		if n.Class.Name != want[i] {
			t.Errorf("node %d class = %s, want %s", i, n.Class.Name, want[i])
		}
		if n.Speed() != n.Device.ClassSpeed() {
			t.Errorf("node %d speed %v disagrees with device %v", i, n.Speed(), n.Device.ClassSpeed())
		}
	}
	if _, err := New(sim.NewEngine(), Config{Devices: 2, Classes: []string{"bogus"}}); err == nil {
		t.Fatal("unknown class should fail fleet construction")
	}
	// Unset classes default every node to the reference class.
	f, err = New(sim.NewEngine(), Config{Devices: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, n := range f.Nodes() {
		if n.Speed() != 1.0 {
			t.Errorf("node %d default speed = %v, want reference 1.0", i, n.Speed())
		}
	}
}

func TestRequestDoneUnderflowPanicsWithNodeName(t *testing.T) {
	f, err := New(sim.NewEngine(), Config{Devices: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := f.Nodes()[0]
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("RequestDone with nothing in flight must panic, not corrupt queue depth")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, n.Device.Name()) {
				t.Fatalf("RequestDone panic %v does not name node %s", r, n.Device.Name())
			}
		}()
		f.RequestDone(n)
	}()
	if n.Load() != 0 {
		t.Fatalf("load = %d after the refused retire, want 0", n.Load())
	}
}

// Regression: a partially populated cfg.GPU must keep the caller's
// fields and default only the unset ones — fleet.New used to replace
// the whole struct with gpu.DefaultConfig() whenever MaxContexts was
// zero, silently discarding, e.g., a custom GraphicsPenalty.
func TestFleetGPUConfigDefaultsOnlyUnsetFields(t *testing.T) {
	f, err := New(sim.NewEngine(), Config{
		Devices: 2,
		GPU:     gpu.Config{GraphicsPenalty: 5},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	def := gpu.DefaultConfig()
	for i, n := range f.Nodes() {
		got := n.Device.Config()
		if got.GraphicsPenalty != 5 {
			t.Errorf("node %d: GraphicsPenalty = %d, caller's 5 was discarded", i, got.GraphicsPenalty)
		}
		if got.MaxContexts != def.MaxContexts {
			t.Errorf("node %d: MaxContexts = %d, want default %d", i, got.MaxContexts, def.MaxContexts)
		}
		if got.Costs == (cost.Model{}) {
			t.Errorf("node %d: zero cost model; default was not applied", i)
		}
	}
	// The other direction: a set MaxContexts with everything else unset
	// keeps the custom value and still gets defaults for the rest.
	f, err = New(sim.NewEngine(), Config{Devices: 1, GPU: gpu.Config{MaxContexts: 7}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := f.Nodes()[0].Device.Config()
	if got.MaxContexts != 7 {
		t.Errorf("MaxContexts = %d, want caller's 7", got.MaxContexts)
	}
	if got.GraphicsPenalty != def.GraphicsPenalty || got.Costs == (cost.Model{}) {
		t.Errorf("unset fields not defaulted: penalty %d, costs zero=%v",
			got.GraphicsPenalty, got.Costs == (cost.Model{}))
	}
}

// Regression: Node.Utilization must stay in [0, 1] even when the caller
// passes a window shorter than the busy time accumulated since
// ResetStats.
func TestNodeUtilizationClamped(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 1, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.Launch(workload.FleetPopulation(1, "uniform")[0])
	eng.RunFor(100 * time.Millisecond)
	n := f.Nodes()[0]
	if n.BusySince() <= time.Millisecond {
		t.Fatalf("saturating tenant kept the device only %v busy; scenario too idle", n.BusySince())
	}
	if u := n.Utilization(time.Millisecond); u != 1 {
		t.Errorf("Utilization(1ms) = %v with %v busy, want clamp to 1", u, n.BusySince())
	}
	if u := n.Utilization(100 * time.Millisecond); u < 0 || u > 1 {
		t.Errorf("Utilization(full window) = %v, want within [0,1]", u)
	}
	if u := n.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %v, want 0", u)
	}
}

// Weighted fair queueing end to end on one device: two saturating
// tenants with a 4x weight ratio must split device time ~4:1, i.e.
// their WeightedWork (normalized work over weight) must come out about
// equal.
func TestFleetWeightedSharesProportional(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 1, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	specs := workload.FleetPopulation(1, "uniform")[:2]
	specs[0].Name, specs[0].Weight = "premium", 4
	specs[1].Name, specs[1].Weight = "standard", 1
	prem := f.Launch(specs[0])
	std := f.Launch(specs[1])
	eng.RunFor(200 * time.Millisecond)
	f.ResetStats()
	eng.RunFor(800 * time.Millisecond)

	for _, tn := range []*Tenant{prem, std} {
		if tn.SetupError() != nil {
			t.Fatalf("tenant %s setup: %v", tn.Spec.Name, tn.SetupError())
		}
	}
	ratio := float64(prem.NormalizedWork()) / float64(std.NormalizedWork())
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("premium/standard service ratio = %.2f, want ~4 (weighted DFQ)", ratio)
	}
	wp, ws := float64(prem.WeightedWork()), float64(std.WeightedWork())
	if lo, hi := min(wp, ws), max(wp, ws); lo/hi < 0.6 {
		t.Errorf("weighted work not equalized: premium %.0f vs standard %.0f", wp, ws)
	}
}

func TestTenantsRunAndMigrationsCost(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 2, Policy: NewRoundRobin(), Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var tenants []*Tenant
	for _, ts := range workload.FleetPopulation(2, "uniform") {
		tenants = append(tenants, f.Launch(ts))
	}
	eng.RunFor(200 * time.Millisecond)

	for _, tn := range tenants {
		if tn.SetupError() != nil {
			t.Fatalf("tenant %s setup: %v", tn.Spec.Name, tn.SetupError())
		}
		if tn.Rounds == 0 {
			t.Fatalf("tenant %s made no progress", tn.Spec.Name)
		}
		if tn.ServiceTime() <= 0 {
			t.Fatalf("tenant %s received no device time", tn.Spec.Name)
		}
	}
	if f.Placements == 0 {
		t.Fatal("no placements recorded")
	}
	if f.Board().Episodes == 0 {
		t.Fatal("no fleet reconciliation episodes: per-device DFQ is not reporting")
	}
}

func TestResetStatsRebaselines(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 2, Policy: NewLocalitySticky(DefaultStickyDepth), Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tn := f.Launch(workload.FleetPopulation(2, "uniform")[0])
	eng.RunFor(100 * time.Millisecond)
	if tn.Rounds == 0 {
		t.Fatal("no rounds before reset")
	}
	f.ResetStats()
	if tn.Rounds != 0 || tn.ServiceTime() != 0 || f.Placements != 0 {
		t.Fatalf("reset left rounds=%d service=%v placements=%d",
			tn.Rounds, tn.ServiceTime(), f.Placements)
	}
	eng.RunFor(100 * time.Millisecond)
	if tn.Rounds == 0 || tn.ServiceTime() <= 0 {
		t.Fatal("no progress after reset")
	}
	for _, n := range f.Nodes() {
		if n.BusySince() < 0 {
			t.Fatalf("negative BusySince on %s", n.Device.Name())
		}
	}
}
