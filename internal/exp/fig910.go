package exp

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/workload"
)

// fig9Ratios are the Throttle off-period ratios of Figures 9 and 10.
var fig9Ratios = []float64{0, 0.2, 0.5, 0.8}

// NonsatResult is one nonsaturating scenario outcome.
type NonsatResult struct {
	SleepRatio  float64
	Sched       Sched
	DCTSlowdown float64
	ThrSlowdown float64
	Efficiency  float64
}

// RunNonsat executes the Section 5.4 scenarios: DCT against a Throttle
// that sleeps the given fraction of each cycle. Each (ratio, scheduler)
// cell runs as its own job; DCT's baseline is shared across the grid.
func RunNonsat(opts Options, ratios []float64, scheds []Sched) []NonsatResult {
	dct, _ := workload.ByName("DCT")
	type cell struct {
		thr   workload.Spec
		ratio float64
		s     Sched
	}
	var (
		cells []cell
		specs = []workload.Spec{dct}
	)
	for _, ratio := range ratios {
		thr := workload.Throttle(425*time.Microsecond, ratio)
		specs = append(specs, thr)
		for _, s := range scheds {
			cells = append(cells, cell{thr: thr, ratio: ratio, s: s})
		}
	}
	alone := MeasureBaselines("nonsat", opts, specs...)

	jobs := make([]Job, len(cells))
	for i, c := range cells {
		jobs[i] = NewJob("nonsat", i,
			fmt.Sprintf("DCT vs Throttle(off=%.0f%%) under %s", c.ratio*100, c.s),
			func(o Options) any {
				return RunMix(c.s, o, alone.For(dct, c.thr), dct, c.thr)
			})
	}
	out := make([]NonsatResult, len(cells))
	for i, r := range RunJobs(opts, jobs) {
		res := r.Value.(MixResult)
		out[i] = NonsatResult{
			SleepRatio: cells[i].ratio, Sched: cells[i].s,
			DCTSlowdown: res.Slowdowns[0], ThrSlowdown: res.Slowdowns[1],
			Efficiency: res.Efficiency,
		}
	}
	return out
}

// runFig910 runs the matrix Figures 9 and 10 render.
func runFig910(opts Options) []NonsatResult {
	return RunNonsat(opts, fig9Ratios, AllScheds())
}

// Fig9 reproduces Figure 9: fairness for DCT vs a nonsaturating Throttle.
func Fig9(opts Options) *report.Table { return fig9Table(runFig910(opts)) }

// Fig10 reproduces Figure 10: efficiency for the same scenarios, plus the
// loss relative to direct access the paper quotes.
func Fig10(opts Options) *report.Table { return fig10Table(runFig910(opts)) }

// nonsatByRatio groups the matrix by off ratio, then scheduler.
func nonsatByRatio(results []NonsatResult) map[float64]map[Sched]NonsatResult {
	by := map[float64]map[Sched]NonsatResult{}
	for _, r := range results {
		if by[r.SleepRatio] == nil {
			by[r.SleepRatio] = map[Sched]NonsatResult{}
		}
		by[r.SleepRatio][r.Sched] = r
	}
	return by
}

func fig9Table(results []NonsatResult) *report.Table {
	t := report.New("Figure 9: nonsaturating workloads — fairness (DCT vs Throttle(425us) with off periods)",
		"Off ratio", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ")
	byRatio := nonsatByRatio(results)
	for _, ratio := range fig9Ratios {
		row := []string{fmt.Sprintf("%.0f%%", ratio*100)}
		for _, s := range AllScheds() {
			r := byRatio[ratio][s]
			row = append(row, fmt.Sprintf("%.2f/%.2f", r.DCTSlowdown, r.ThrSlowdown))
		}
		t.AddRow(row...)
	}
	t.AddNote("cells are DCT/Throttle slowdowns; under Disengaged FQ the Throttle does not suffer and DCT benefits from its idleness")
	return t
}

func fig10Table(results []NonsatResult) *report.Table {
	t := report.New("Figure 10: nonsaturating workloads — efficiency",
		"Off ratio", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ", "TS loss", "DTS loss", "DFQ loss")
	byRatio := nonsatByRatio(results)
	for _, ratio := range fig9Ratios {
		m := byRatio[ratio]
		row := []string{fmt.Sprintf("%.0f%%", ratio*100)}
		for _, s := range AllScheds() {
			row = append(row, report.F(m[s].Efficiency, 2))
		}
		base := m[Direct].Efficiency
		for _, s := range []Sched{TS, DTS, DFQ} {
			loss := 0.0
			if base > 0 {
				loss = 1 - m[s].Efficiency/base
			}
			row = append(row, report.Pct(loss))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper at 80%% off: losses vs direct are 36%% (Timeslice), 34%% (Disengaged TS), ~0%% (Disengaged FQ)")
	return t
}
