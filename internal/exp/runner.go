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
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/traffic"
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
	policy, err := core.New(string(sched))
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return newRig(policy, cost.Default(), opts, specs...)
}

// newRig builds a stack around a constructed scheduler and cost model
// and launches the specs.
func newRig(sched neon.Scheduler, costs cost.Model, opts Options, specs ...workload.Spec) *Rig {
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	if opts.GraphicsPenalty > 0 {
		cfg.GraphicsPenalty = opts.GraphicsPenalty
	}
	cfg.Costs = costs
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, sched)
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

// runMatrix runs the paper's co-run matrix (its §5.3): each row's specs
// together under each scheduler, with slowdowns against each spec's
// standalone direct-access round time. The baselines run first, once
// per distinct spec, on "<exp>:alone"; then one cell per (row,
// scheduler) runs in row-major order on exp. Results are indexed
// [row][scheduler] and drop their rigs, so the matrix holds no stack.
func runMatrix(opts Options, exp string, rows [][]workload.Spec, scheds []Sched) [][]MixResult {
	type cell struct {
		specs []workload.Spec
		sched Sched
	}
	var (
		specs []workload.Spec
		cells []cell
	)
	for _, row := range rows {
		specs = append(specs, row...)
		for _, s := range scheds {
			cells = append(cells, cell{row, s})
		}
	}
	alone := MeasureBaselines(exp, opts, specs...)
	res := grid(opts, exp, cells, func(o Options, c cell) MixResult {
		r := RunMix(c.sched, o, alone.For(c.specs...), c.specs...)
		r.Rig = nil
		return r
	})
	out := make([][]MixResult, len(rows))
	for i := range rows {
		out[i] = res[i*len(scheds) : (i+1)*len(scheds)]
	}
	return out
}

// runFleet builds a fleet on its own engine with o's seed and run
// limit, launches the tenants, runs warmup, clears statistics, and runs
// the measurement window. A tenant that failed setup is a broken
// scenario, not a data point, so it panics.
func runFleet(o Options, cfg fleet.Config, specs []workload.TenantSpec) *fleet.Fleet {
	cfg.RunLimit, cfg.Seed = o.RunLimit, o.Seed
	f, err := fleet.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	for _, ts := range specs {
		f.Launch(ts)
	}
	f.Engine().RunFor(o.Warmup)
	f.ResetStats()
	f.Engine().RunFor(o.Measure)
	for _, t := range f.Tenants() {
		if err := t.SetupError(); err != nil {
			panic(fmt.Sprintf("exp: tenant %s setup: %v", t.Spec.Name, err))
		}
	}
	return f
}

// serve is runFleet for open-loop traffic: it builds the server with
// o's seed and run limit and runs it through warmup and measurement,
// panicking on a stream whose client setup failed.
func serve(o Options, cfg traffic.Config) *traffic.Server {
	cfg.Fleet.RunLimit, cfg.Fleet.Seed = o.RunLimit, o.Seed
	srv, err := traffic.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	srv.Fleet().Engine().RunFor(o.Warmup)
	srv.ResetStats()
	srv.Fleet().Engine().RunFor(o.Measure)
	if err := srv.SetupError(); err != nil {
		panic(fmt.Sprintf("exp: stream setup: %v", err))
	}
	return srv
}
