// Package exp drives the paper's evaluation: one function per table and
// figure, each returning a report.Table with the same rows/series the
// paper plots. A shared runner builds the full stack (engine, device,
// kernel, scheduler, applications) for each scenario.
package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options scales the experiments: Full matches the paper's configuration;
// Quick shrinks measurement windows for tests and benchmarks.
type Options struct {
	// Warmup and Measure are the settle and measurement windows.
	Warmup  sim.Duration
	Measure sim.Duration
	// GraphicsPenalty is the device's internal arbitration bias
	// (DefaultPenalty reproduces the paper's observations).
	GraphicsPenalty int
	// RunLimit is the kernel's over-long request kill threshold.
	RunLimit sim.Duration
	// Seed feeds the deterministic RNG.
	Seed int64
	// Parallel bounds the experiment worker pool: scenarios of one
	// experiment run on up to this many goroutines, each with its own
	// engine and a seed forked from (Seed, experiment, scenario index),
	// so results are identical at any width. Zero means runtime.NumCPU.
	Parallel int
	// Loads overrides the serve experiment's load-factor sweep
	// (cmd/neonsim -load); nil means DefaultServeLoads.
	Loads []float64
	// Classes overrides the fleet composition (cmd/neonsim -classes):
	// the hetero experiment replaces its class-mix sweep with exactly
	// this mix, and the serve experiment runs its open-loop grid over a
	// fleet of these classes instead of a homogeneous one. Nil keeps
	// each experiment's default.
	Classes []string
	// Weights overrides the tiers experiment's premium/standard/
	// best-effort fair-share weight vector (cmd/neonsim -weights): three
	// positive factors, replacing the default premium-ratio sweep with
	// exactly this contract. Nil keeps the sweep.
	Weights []float64
	// Tiers overrides the tiers experiment's admission tier per role
	// (cmd/neonsim -tiers): three workload tiers assigned to the
	// premium/standard/best-effort streams in order. Nil keeps each
	// role's namesake tier.
	Tiers []workload.Tier
	// Tenants overrides the scale experiment's tenant-count sweep
	// (cmd/neonsim -tenants); nil means DefaultScaleTenants.
	Tenants []int
	// Policy selects the allocation policy (cmd/neonsim -policy) the
	// tiers experiment attaches to its fleets via the round-based
	// allocator: a policy.Parse name such as "static", "maxmin", "hier"
	// (optionally "hier:org=weight,..."), or "cost". Empty runs no
	// allocator at all — and "static" through the allocator is
	// byte-identical to that, which the differential test pins.
	Policy string
	// DeepScale appends the scale experiment's deep rows (cmd/neonsim
	// -deep): the 10^6-tenant synthetic ledger cell and the 10^5-tenant
	// full-stack storm. Off by default — the rows cost minutes, not
	// seconds, and have their own golden (testdata/scale_deep.golden).
	DeepScale bool
}

// DefaultPenalty is the graphics arbitration bias observed in Section
// 5.3 ("almost one third the rate").
const DefaultPenalty = 3

// Full returns the paper-scale options.
func Full() Options {
	return Options{
		Warmup:          200 * time.Millisecond,
		Measure:         2 * time.Second,
		GraphicsPenalty: DefaultPenalty,
		RunLimit:        time.Second,
		Seed:            1,
	}
}

// Quick returns reduced windows for tests and benchmarks.
func Quick() Options {
	o := Full()
	o.Warmup = 60 * time.Millisecond
	o.Measure = 400 * time.Millisecond
	return o
}

// Sched names a policy for the runner; the empty string means "direct".
type Sched string

// The selectable policies.
const (
	Direct Sched = "direct"
	TS     Sched = "timeslice"
	DTS    Sched = "dts"
	DFQ    Sched = "dfq"
	Oracle Sched = "oracle"
)

// AllScheds returns the four policies of the paper's figures, in
// presentation order.
func AllScheds() []Sched { return []Sched{Direct, TS, DTS, DFQ} }

// Label returns the display name used in the paper's figures.
func (s Sched) Label() string {
	switch s {
	case Direct:
		return "direct"
	case TS:
		return "Timeslice"
	case DTS:
		return "Disengaged Timeslice"
	case DFQ:
		return "Disengaged Fair Queueing"
	case Oracle:
		return "Oracle Fair Queueing"
	}
	return string(s)
}

// Rig is one fully assembled simulation stack.
type Rig struct {
	Engine *sim.Engine
	Device *gpu.Device
	Kernel *neon.Kernel
	Apps   []*workload.App
	opts   Options
}

// NewRig builds a stack with the given scheduler and launches the specs.
func NewRig(sched Sched, opts Options, specs ...workload.Spec) *Rig {
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	if opts.GraphicsPenalty > 0 {
		cfg.GraphicsPenalty = opts.GraphicsPenalty
	}
	cfg.Costs = cost.Default()
	dev := gpu.New(eng, cfg)
	policy, err := core.New(string(sched))
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	k := neon.NewKernel(dev, policy)
	k.RequestRunLimit = opts.RunLimit
	rig := &Rig{Engine: eng, Device: dev, Kernel: k, opts: opts}
	for _, s := range specs {
		rig.Apps = append(rig.Apps, workload.Launch(k, s))
	}
	return rig
}

// Measure runs warmup, clears statistics, runs the measurement window,
// and returns each app's average round time in launch order.
func (r *Rig) Measure() []sim.Duration {
	r.Engine.RunFor(r.opts.Warmup)
	for _, a := range r.Apps {
		a.ResetStats()
	}
	r.Engine.RunFor(r.opts.Measure)
	out := make([]sim.Duration, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.AvgRound()
	}
	return out
}

// MeasureAlone runs each spec standalone under direct access and returns
// its baseline round time. These are the denominators of every slowdown
// in the paper.
func MeasureAlone(opts Options, specs ...workload.Spec) []sim.Duration {
	out := make([]sim.Duration, len(specs))
	for i, s := range specs {
		rig := NewRig(Direct, opts, s)
		out[i] = rig.Measure()[0]
	}
	return out
}

// MixResult is a concurrent run's outcome.
type MixResult struct {
	Rounds     []sim.Duration // avg round per app
	Slowdowns  []float64      // vs the supplied baselines
	Efficiency float64        // paper's concurrency efficiency
	Rig        *Rig
}

// RunMix launches the specs together under the scheduler and computes
// slowdowns against the provided standalone baselines.
func RunMix(sched Sched, opts Options, alone []sim.Duration, specs ...workload.Spec) MixResult {
	rig := NewRig(sched, opts, specs...)
	rounds := rig.Measure()
	res := MixResult{Rounds: rounds, Rig: rig}
	for i := range specs {
		res.Slowdowns = append(res.Slowdowns, metrics.Slowdown(rounds[i], alone[i]))
	}
	res.Efficiency = metrics.Efficiency(alone, rounds)
	return res
}
