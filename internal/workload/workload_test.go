package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

type passthrough struct{}

func (passthrough) Name() string                           { return "pass" }
func (passthrough) Start(*neon.Kernel)                     {}
func (passthrough) TaskAdmitted(*neon.Task)                {}
func (passthrough) TaskExited(*neon.Task)                  {}
func (passthrough) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(true) }

func stack(t *testing.T) (*sim.Engine, *neon.Kernel) {
	t.Helper()
	e := sim.NewEngine()
	d := gpu.New(e, gpu.DefaultConfig())
	return e, neon.NewKernel(d, passthrough{})
}

func TestTable1HasAllEighteenApps(t *testing.T) {
	specs := Table1()
	if len(specs) != 18 {
		t.Fatalf("Table1 has %d specs, want 18", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestSpecCalibration checks every mix against the paper's Table 1:
// per-round time within 5% and mean checked-request size within 10%.
func TestSpecCalibration(t *testing.T) {
	for _, s := range Table1() {
		roundUS := float64(s.ActiveTime()) / float64(time.Microsecond)
		if rel := math.Abs(roundUS-s.PaperRoundUS) / s.PaperRoundUS; rel > 0.05 {
			t.Errorf("%s: modeled round %.0fus vs paper %.0fus (%.1f%% off)",
				s.Name, roundUS, s.PaperRoundUS, 100*rel)
		}
		if s.PaperReq2US > 0 {
			continue // combined apps checked separately below
		}
		meanUS := float64(s.MeanRequest()) / float64(time.Microsecond)
		if rel := math.Abs(meanUS-s.PaperReqUS) / s.PaperReqUS; rel > 0.10 {
			t.Errorf("%s: modeled mean request %.0fus vs paper %.0fus",
				s.Name, meanUS, s.PaperReqUS)
		}
	}
}

func TestCombinedAppsPerChannelMeans(t *testing.T) {
	for _, name := range []string{"oclParticles", "simpleTexture3D"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		var cSum, gSum time.Duration
		var cN, gN int
		for _, r := range s.Requests() {
			if r.Trivial {
				continue
			}
			if r.Kind == gpu.Compute {
				cSum += r.Size
				cN++
			} else if r.Kind == gpu.Graphics {
				gSum += r.Size
				gN++
			}
		}
		cMean := float64(cSum/time.Duration(cN)) / float64(time.Microsecond)
		gMean := float64(gSum/time.Duration(gN)) / float64(time.Microsecond)
		if math.Abs(cMean-s.PaperReqUS) > 1 || math.Abs(gMean-s.PaperReq2US) > 1 {
			t.Errorf("%s: per-channel means %.0f/%.0f vs paper %.0f/%.0f",
				name, cMean, gMean, s.PaperReqUS, s.PaperReq2US)
		}
	}
}

func TestTrivialRequestsExcludedFromMean(t *testing.T) {
	s, _ := ByName("BitonicSort")
	n := 0
	for _, r := range s.Requests() {
		if r.Trivial {
			n++
		}
	}
	if n != 35 {
		t.Fatalf("BitonicSort trivial count = %d, want 35", n)
	}
	mean := float64(s.MeanRequest()) / float64(time.Microsecond)
	if mean < 195 || mean > 210 {
		t.Fatalf("mean with trivial excluded = %.0f, want ~202", mean)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("DCT"); !ok {
		t.Fatal("DCT missing")
	}
	if _, ok := ByName("NoSuchApp"); ok {
		t.Fatal("bogus name found")
	}
}

func TestThrottleSpec(t *testing.T) {
	s := Throttle(425*time.Microsecond, 0.8)
	if s.RequestCount() != 1 || s.MeanRequest() != 425*time.Microsecond {
		t.Fatalf("throttle mix wrong: %+v", s.Mix)
	}
	// OffTime: active*(0.8/0.2) = 4x active.
	if got, want := s.OffTime(), 4*s.ActiveTime(); got != want {
		t.Fatalf("OffTime = %v, want %v", got, want)
	}
	if Throttle(10*time.Microsecond, 0).OffTime() != 0 {
		t.Fatal("saturating throttle has off time")
	}
}

// TestTenantSpecValidate is the regression test for the silent weight
// clamp: core.PerWeight treats weight <= 0 as 1, so a negative or NaN
// weight used to sail through spec parsing and quietly become an equal
// share. Validate must reject those at spec time while keeping zero as
// the documented "unset → default 1" value.
func TestTenantSpecValidate(t *testing.T) {
	ok := []TenantSpec{
		{Spec: Spec{Name: "zero"}},
		{Spec: Spec{Name: "unit"}, Weight: 1},
		{Spec: Spec{Name: "frac"}, Weight: 0.25},
		{Spec: Spec{Name: "heavy"}, Weight: 4, Tier: TierPremium, Org: "acme"},
	}
	for _, s := range ok {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", s.Name, err)
		}
	}
	bad := []TenantSpec{
		{Spec: Spec{Name: "neg"}, Weight: -1},
		{Spec: Spec{Name: "nan"}, Weight: math.NaN()},
		{Spec: Spec{Name: "inf"}, Weight: math.Inf(1)},
		{Spec: Spec{Name: "ninf"}, Weight: math.Inf(-1)},
		{Spec: Spec{Name: "tier"}, Weight: 1, Tier: Tier("platinum")},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%s) accepted invalid spec %+v", s.Name, s)
		}
	}
}

func TestAppRunsRounds(t *testing.T) {
	e, k := stack(t)
	spec, _ := ByName("DCT")
	app := Launch(k, spec)
	e.RunFor(100 * time.Millisecond)
	if app.SetupError() != nil {
		t.Fatal(app.SetupError())
	}
	if app.Rounds == 0 {
		t.Fatal("no rounds")
	}
	avg := float64(app.AvgRound()) / float64(time.Microsecond)
	if avg < spec.PaperRoundUS*0.95 || avg > spec.PaperRoundUS*1.15 {
		t.Fatalf("avg round %.0fus vs paper %.0f", avg, spec.PaperRoundUS)
	}
}

func TestAppObserveHistograms(t *testing.T) {
	e, k := stack(t)
	spec, _ := ByName("glxgears")
	app := Launch(k, spec)
	app.Observe = true
	e.RunFor(50 * time.Millisecond)
	if app.Service.Total == 0 || app.InterArrival.Total == 0 {
		t.Fatal("no observations")
	}
	// Figure 2's property: at least half the requests are small. Bins
	// 0-2 hold the requests under 8us.
	if pct := app.Service.CDF()[2]; pct < 40 {
		t.Fatalf("only %.0f%% of glxgears requests below 8us", pct)
	}
}

func TestAppResetStats(t *testing.T) {
	e, k := stack(t)
	app := Launch(k, Throttle(50*time.Microsecond, 0))
	e.RunFor(20 * time.Millisecond)
	if app.Rounds == 0 {
		t.Fatal("no rounds before reset")
	}
	app.ResetStats()
	if app.Rounds != 0 || app.RoundTime != 0 {
		t.Fatal("reset incomplete")
	}
	e.RunFor(20 * time.Millisecond)
	if app.Rounds == 0 {
		t.Fatal("no rounds after reset")
	}
}

func TestMeanRequestObserved(t *testing.T) {
	e, k := stack(t)
	app := Launch(k, Throttle(100*time.Microsecond, 0))
	e.RunFor(20 * time.Millisecond)
	if got := app.MeanRequest(gpu.Compute); got != 100*time.Microsecond {
		t.Fatalf("observed mean = %v, want 100us", got)
	}
	if app.MeanRequest(gpu.Graphics) != 0 {
		t.Fatal("graphics mean should be 0 for a compute-only app")
	}
}

func TestInfiniteKernelHangsUnprotectedDevice(t *testing.T) {
	e, k := stack(t)
	victim := Launch(k, Throttle(50*time.Microsecond, 0))
	inf := LaunchInfiniteKernel(k, 2)
	e.RunFor(200 * time.Millisecond)
	if !inf.Task.Alive {
		t.Fatal("nothing should kill the attacker without a scheduler")
	}
	// After the attack lands, the victim stops making progress.
	before := victim.Rounds
	e.RunFor(200 * time.Millisecond)
	if victim.Rounds != before {
		t.Fatalf("victim advanced %d rounds under a hung device", victim.Rounds-before)
	}
}

func TestChannelHogRespectsDeviceLimit(t *testing.T) {
	e, k := stack(t)
	_, res, done := LaunchChannelHog(k, 100)
	e.RunFor(100 * time.Millisecond)
	if !done.IsOpen() {
		t.Fatal("hog never finished")
	}
	if res.ContextsCreated != 48 {
		t.Fatalf("hog created %d contexts, want all 48", res.ContextsCreated)
	}
	if res.DeniedAt != gpu.ErrNoContexts {
		t.Fatalf("DeniedAt = %v", res.DeniedAt)
	}
}

func TestGreedyBatcherSpec(t *testing.T) {
	s := GreedyBatcher(10 * time.Millisecond)
	if s.GPUTime() != 10*time.Millisecond || s.Name != "GreedyBatcher" {
		t.Fatalf("spec = %+v", s)
	}
}

func TestPipelinedAppKeepsChannelBusy(t *testing.T) {
	e, k := stack(t)
	spec, _ := ByName("glxgears")
	app := Launch(k, spec)
	e.RunFor(50 * time.Millisecond)
	// Frame time should be close to GPU time (pipelined, GPU-bound).
	avg := float64(app.AvgRound()) / float64(time.Microsecond)
	if avg > 1.2*spec.PaperRoundUS {
		t.Fatalf("frame time %.0fus, want near %.0f (pipelining broken?)", avg, spec.PaperRoundUS)
	}
}

// TestKilledLoopRequestsReturnToPool: a killed app's fire-and-forget
// requests abort, and the round machine's completion hook returns each
// to the device's pool, the executing one included, so the device's
// next Stages hand it back.
func TestKilledLoopRequestsReturnToPool(t *testing.T) {
	e, k := stack(t)
	spec, _ := ByName("glxgears") // every round request is pipelined
	app := Launch(k, spec)
	e.RunFor(5 * time.Millisecond)
	dev := k.Device()
	for dev.CurrentRequest() == nil && e.Step() {
	}
	running := dev.CurrentRequest()
	if running == nil {
		t.Fatal("no request running")
	}
	k.KillTask(app.Task, "test: killed with pipelined requests in flight")
	e.RunFor(time.Millisecond)

	ctx, err := dev.CreateContext(99, "probe")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := dev.CreateChannel(ctx, gpu.Compute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if ch.Stage(time.Microsecond, gpu.Compute) == running {
			return
		}
	}
	t.Fatalf("the request aborted while executing (%p) is not among the device's next 64 Stages", running)
}
