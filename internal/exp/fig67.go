package exp

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/workload"
)

// fig6Pairs are the application/Throttle pairings of Figures 6 and 7.
var fig6Pairs = []string{"DCT", "FFT", "glxgears", "oclParticles"}

// PairResult is one cell of the Figure 6/7 matrix.
type PairResult struct {
	App         string
	ThrottleUS  float64
	Sched       Sched
	AppSlowdown float64
	ThrSlowdown float64
	Efficiency  float64
}

// RunPairs executes the full pairwise matrix: each listed application
// against Throttle at each size, under each scheduler. Every cell is an
// independent job on the worker pool; each application's and each
// Throttle size's standalone baseline is measured once for the whole
// matrix rather than once per pair.
func RunPairs(opts Options, apps []string, sizes []float64, scheds []Sched) []PairResult {
	type cell struct {
		app  workload.Spec
		thr  workload.Spec
		name string
		usz  float64
		s    Sched
	}
	var (
		cells []cell
		specs []workload.Spec
	)
	for _, name := range apps {
		spec, ok := workload.ByName(name)
		if !ok {
			continue
		}
		specs = append(specs, spec)
		for _, usz := range sizes {
			thr := workload.Throttle(time.Duration(usz*float64(time.Microsecond)), 0)
			specs = append(specs, thr)
			for _, s := range scheds {
				cells = append(cells, cell{app: spec, thr: thr, name: name, usz: usz, s: s})
			}
		}
	}
	alone := MeasureBaselines("pairs", opts, specs...)

	jobs := make([]Job, len(cells))
	for i, c := range cells {
		jobs[i] = NewJob("pairs", i,
			fmt.Sprintf("%s vs Thr(%.0fus) under %s", c.name, c.usz, c.s),
			func(o Options) any {
				return RunMix(c.s, o, alone.For(c.app, c.thr), c.app, c.thr)
			})
	}
	out := make([]PairResult, len(cells))
	for i, r := range RunJobs(opts, jobs) {
		res := r.Value.(MixResult)
		c := cells[i]
		out[i] = PairResult{
			App: c.name, ThrottleUS: c.usz, Sched: c.s,
			AppSlowdown: res.Slowdowns[0], ThrSlowdown: res.Slowdowns[1],
			Efficiency: res.Efficiency,
		}
	}
	return out
}

// fig67Sizes trims the sweep for the default harness (the paper plots
// 19us-1.7ms; four sizes keep the matrix readable).
var fig67Sizes = []float64{19, 191, 425, 1700}

// runFig67 runs the matrix Figures 6 and 7 render.
func runFig67(opts Options) []PairResult {
	return RunPairs(opts, fig6Pairs, fig67Sizes, AllScheds())
}

// Fig6 reproduces Figure 6: fairness of concurrent executions — per-pair
// normalized runtimes under each scheduler.
func Fig6(opts Options) *report.Table { return fig6Table(runFig67(opts)) }

// Fig7 reproduces Figure 7: concurrency efficiency for the same pairs.
func Fig7(opts Options) *report.Table { return fig7Table(runFig67(opts)) }

// pairRow is one (application, Throttle size) row of Figures 6 and 7.
type pairRow struct {
	label string
	by    map[Sched]PairResult
}

// pairRows groups the matrix into rows in enumeration order.
func pairRows(results []PairResult) []pairRow {
	type key struct {
		app string
		usz float64
	}
	at := map[key]int{}
	var rows []pairRow
	for _, r := range results {
		k := key{r.App, r.ThrottleUS}
		i, ok := at[k]
		if !ok {
			i = len(rows)
			at[k] = i
			rows = append(rows, pairRow{
				label: fmt.Sprintf("%s vs Thr(%.0fus)", r.App, r.ThrottleUS),
				by:    map[Sched]PairResult{},
			})
		}
		rows[i].by[r.Sched] = r
	}
	return rows
}

func fig6Table(results []PairResult) *report.Table {
	t := report.New("Figure 6: pairwise fairness (slowdown vs running alone, app/Throttle)",
		"Pair", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ")
	for _, pr := range pairRows(results) {
		row := []string{pr.label}
		for _, s := range AllScheds() {
			r := pr.by[s]
			row = append(row, fmt.Sprintf("%.2f/%.2f", r.AppSlowdown, r.ThrSlowdown))
		}
		t.AddRow(row...)
	}
	t.AddNote("direct access is grossly unfair (>10x possible); the fair schedulers hold both co-runners near 2x")
	t.AddNote("glxgears and oclParticles under Disengaged FQ show the paper's estimation anomalies (Section 5.3)")
	return t
}

func fig7Table(results []PairResult) *report.Table {
	t := report.New("Figure 7: concurrency efficiency (sum of resource shares)",
		"Pair", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ")
	for _, pr := range pairRows(results) {
		row := []string{pr.label}
		for _, s := range AllScheds() {
			row = append(row, report.F(pr.by[s].Efficiency, 2))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: efficiency losses vs direct average 19%% (Timeslice), 10%% (Disengaged TS), 4%% (Disengaged FQ)")
	return t
}

// Fig8 reproduces Figure 8: four concurrent applications (Throttle 425us,
// BinarySearch, DCT, FFT) — per-app slowdowns plus overall efficiency,
// one job per scheduler.
func Fig8(opts Options) *report.Table {
	thr := workload.Throttle(425*time.Microsecond, 0)
	bs, _ := workload.ByName("BinarySearch")
	dct, _ := workload.ByName("DCT")
	fft, _ := workload.ByName("FFT")
	specs := []workload.Spec{thr, bs, dct, fft}
	alone := MeasureBaselines("fig8", opts, specs...)

	var jobs []Job
	for i, s := range AllScheds() {
		jobs = append(jobs, NewJob("fig8", i, fmt.Sprintf("four apps under %s", s),
			func(o Options) any {
				return RunMix(s, o, alone.For(specs...), specs...)
			}))
	}
	res := RunJobs(opts, jobs)

	t := report.New("Figure 8: four concurrent applications",
		"Scheduler", "Throttle(425us)", "BinarySearch", "DCT", "FFT", "efficiency")
	for i, s := range AllScheds() {
		mix := res[i].Value.(MixResult)
		row := []string{s.Label()}
		for _, sd := range mix.Slowdowns {
			row = append(row, report.X(sd))
		}
		row = append(row, report.F(mix.Efficiency, 2))
		t.AddRow(row...)
	}
	t.AddNote("paper: average slowdown stays at 4-5x; efficiency loss vs direct is 13%% engaged, 8%%/7%% disengaged")
	return t
}
