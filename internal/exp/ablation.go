package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/neon"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationStats isolates the cost of software usage estimation (the
// Section 5.3 limitation and Section 6.1 proposal): the DFQ anomaly pairs
// run under sampled-estimate DFQ and under the oracle variant that reads
// vendor-exported per-context busy time.
func AblationStats(opts Options) *report.Table {
	pairs := []struct {
		app string
		usz float64
	}{
		{"glxgears", 19},
		{"oclParticles", 425},
		{"DCT", 425},
	}
	rows := make([][]workload.Spec, len(pairs))
	for i, pr := range pairs {
		spec, _ := workload.ByName(pr.app)
		rows[i] = []workload.Spec{spec, throttleUS(pr.usz)}
	}
	matrix := runMatrix(opts, "ablation-stats", rows, []Sched{DFQ, Oracle})

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
		dfq, orc := matrix[i][0], matrix[i][1]
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
// overhead and pair fairness. Each variant runs DCT alone and DCT
// against Throttle as two cells, against the default-cost baselines.
func AblationParams(opts Options) *report.Table {
	dct, _ := workload.ByName("DCT")
	thr := throttleUS(425)
	alone := MeasureBaselines("ablation-params", opts, dct, thr).For(dct, thr)

	type cell struct {
		v     ablationVariant
		specs []workload.Spec
	}
	var cells []cell
	for _, v := range ablationVariants() {
		cells = append(cells, cell{v, []workload.Spec{dct}}, cell{v, []workload.Spec{dct, thr}})
	}
	rounds := grid(opts, "ablation-params", cells, func(o Options, c cell) []sim.Duration {
		return newRig(c.v.mk(), c.v.costs, o, c.specs...).Measure()
	})

	t := report.New("Ablation: configuration parameters",
		"Variant", "standalone DCT overhead", "pair DCT/Thr(425us)")
	for i := 0; i < len(cells); i += 2 {
		solo, pair := rounds[i][0], rounds[i+1]
		sd := float64(solo) / float64(alone[0])
		t.AddRow(cells[i].v.label, report.Pct(sd-1), fmt.Sprintf("%.2f/%.2f",
			float64(pair[0])/float64(alone[0]),
			float64(pair[1])/float64(alone[1])))
	}
	t.AddNote("finer polling shrinks drain idleness; longer slices amortize token passing; longer free runs amortize engagement")
	return t
}
