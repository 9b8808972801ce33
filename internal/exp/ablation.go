package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationStats isolates the cost of software usage estimation (the
// Section 5.3 limitation and Section 6.1 proposal): the DFQ anomaly pairs
// run under sampled-estimate DFQ and under the oracle variant that reads
// vendor-exported per-context busy time. Each (pair, scheduler) cell is a
// job; baselines are measured once per distinct spec.
func AblationStats(opts Options) *report.Table {
	pairs := []struct {
		app string
		usz float64
	}{
		{"glxgears", 19},
		{"oclParticles", 425},
		{"DCT", 425},
	}
	type cell struct {
		spec, thr workload.Spec
	}
	var (
		cells []cell
		specs []workload.Spec
	)
	for _, pr := range pairs {
		spec, _ := workload.ByName(pr.app)
		thr := workload.Throttle(time.Duration(pr.usz*float64(time.Microsecond)), 0)
		cells = append(cells, cell{spec, thr})
		specs = append(specs, spec, thr)
	}
	alone := MeasureBaselines("ablation-stats", opts, specs...)

	scheds := []Sched{DFQ, Oracle}
	var jobs []Job
	for i, c := range cells {
		for j, s := range scheds {
			jobs = append(jobs, NewJob("ablation-stats", i*len(scheds)+j,
				fmt.Sprintf("%s vs Thr(%.0fus) under %s", pairs[i].app, pairs[i].usz, s),
				func(o Options) any {
					return RunMix(s, o, alone.For(c.spec, c.thr), c.spec, c.thr)
				}))
		}
	}
	res := RunJobs(opts, jobs)

	t := report.New("Ablation: sampled estimates (prototype DFQ) vs hardware statistics (oracle)",
		"Pair", "DFQ app/thr", "Oracle app/thr", "DFQ gap", "Oracle gap")
	gap := func(r MixResult) string {
		hi, lo := r.Slowdowns[0], r.Slowdowns[1]
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo <= 0 {
			return "-"
		}
		return report.F(hi/lo, 2)
	}
	for i, pr := range pairs {
		dfq := res[i*len(scheds)].Value.(MixResult)
		orc := res[i*len(scheds)+1].Value.(MixResult)
		t.AddRow(fmt.Sprintf("%s vs Thr(%.0fus)", pr.app, pr.usz),
			fmt.Sprintf("%.2f/%.2f", dfq.Slowdowns[0], dfq.Slowdowns[1]),
			fmt.Sprintf("%.2f/%.2f", orc.Slowdowns[0], orc.Slowdowns[1]),
			gap(dfq), gap(orc))
	}
	t.AddNote("gap = ratio of the worse co-runner's slowdown to the better's; 1.0 is perfectly even")
	t.AddNote("hardware statistics shrink the unfairness caused by the round-robin estimation assumption")
	return t
}

// ablationVariant is one configuration point of the parameter sweep.
type ablationVariant struct {
	label string
	costs cost.Model
	mk    func() neon.Scheduler
}

// ablationVariants enumerates the design parameters DESIGN.md calls out:
// polling granularity (drain idleness), timeslice length, and the DFQ
// free-run multiplier.
func ablationVariants() []ablationVariant {
	var out []ablationVariant
	for _, poll := range []sim.Duration{250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		costs := cost.Default()
		costs.PollInterval = poll
		out = append(out, ablationVariant{
			label: fmt.Sprintf("DTS poll=%v", poll),
			costs: costs,
			mk:    func() neon.Scheduler { return core.NewDisengagedTimeslice(core.DefaultSlice) },
		})
	}
	for _, slice := range []sim.Duration{10 * time.Millisecond, 30 * time.Millisecond, 90 * time.Millisecond} {
		out = append(out, ablationVariant{
			label: fmt.Sprintf("DTS slice=%v", slice),
			costs: cost.Default(),
			mk:    func() neon.Scheduler { return core.NewDisengagedTimeslice(slice) },
		})
	}
	for _, mult := range []int{2, 5, 10} {
		out = append(out, ablationVariant{
			label: fmt.Sprintf("DFQ freerun=%dx", mult),
			costs: cost.Default(),
			mk: func() neon.Scheduler {
				cfg := core.DefaultDFQConfig()
				cfg.FreeRunMultiplier = mult
				return core.NewDisengagedFairQueueing(cfg)
			},
		})
	}
	return out
}

// AblationParams sweeps the parameter variants, reporting standalone
// overhead and pair fairness. Each variant's standalone and pair rigs run
// as separate jobs against the shared default-cost baselines.
func AblationParams(opts Options) *report.Table {
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(425*time.Microsecond, 0)
	alone := MeasureBaselines("ablation-params", opts, dct, thr)
	aloneDCT := alone.Of(dct)
	alonePair := alone.For(dct, thr)

	variants := ablationVariants()
	var jobs []Job
	for i, v := range variants {
		jobs = append(jobs, NewJob("ablation-params", 2*i, v.label+" solo",
			func(o Options) any { return ablationRun(o, v.costs, v.mk, dct) }))
		jobs = append(jobs, NewJob("ablation-params", 2*i+1, v.label+" pair",
			func(o Options) any { return ablationRun(o, v.costs, v.mk, dct, thr) }))
	}
	res := RunJobs(opts, jobs)

	t := report.New("Ablation: configuration parameters",
		"Variant", "standalone DCT overhead", "pair DCT/Thr(425us)")
	for i, v := range variants {
		solo := res[2*i].Value.([]sim.Duration)[0]
		pair := res[2*i+1].Value.([]sim.Duration)
		sd := float64(solo) / float64(aloneDCT)
		cell := fmt.Sprintf("%.2f/%.2f",
			float64(pair[0])/float64(alonePair[0]),
			float64(pair[1])/float64(alonePair[1]))
		t.AddRow(v.label, report.Pct(sd-1), cell)
	}
	t.AddNote("finer polling shrinks drain idleness; longer slices amortize token passing; longer free runs amortize engagement")
	return t
}

// ablationRun builds one custom rig with explicit costs and scheduler
// constructor, measures it, and returns each app's average round time.
func ablationRun(opts Options, costs cost.Model, mk func() neon.Scheduler, specs ...workload.Spec) []sim.Duration {
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.GraphicsPenalty = opts.GraphicsPenalty
	cfg.Costs = costs
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, mk())
	k.RequestRunLimit = opts.RunLimit
	var apps []*workload.App
	for _, s := range specs {
		apps = append(apps, workload.Launch(k, s))
	}
	eng.RunFor(opts.Warmup)
	for _, a := range apps {
		a.ResetStats()
	}
	eng.RunFor(opts.Measure)
	out := make([]sim.Duration, len(apps))
	for i, a := range apps {
		out[i] = a.AvgRound()
	}
	return out
}
