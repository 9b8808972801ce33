package exp

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/workload"
)

// fig4Scheds are the managed policies Figures 4 and 5 compare against
// direct access.
var fig4Scheds = []Sched{TS, DTS, DFQ}

// standalone runs each spec alone under each of fig4Scheds and adds one
// row per spec to t: its label, then its slowdown over its direct-access
// baseline under each policy.
func standalone(opts Options, exp string, t *report.Table, labels []string, specs []workload.Spec) *report.Table {
	rows := make([][]workload.Spec, len(specs))
	for i, s := range specs {
		rows[i] = []workload.Spec{s}
	}
	for i, row := range runMatrix(opts, exp, rows, fig4Scheds) {
		cells := []string{labels[i]}
		for _, r := range row {
			cells = append(cells, report.X(r.Slowdowns[0]))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig4 reproduces Figure 4: standalone slowdown of every benchmark under
// each scheduling policy, relative to direct device access.
func Fig4(opts Options) *report.Table {
	specs := workload.Table1()
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = s.Name
	}
	t := standalone(opts, "fig4", report.New("Figure 4: standalone execution slowdown vs direct access",
		"Application", "Timeslice", "Disengaged TS", "Disengaged FQ"), labels, specs)
	t.AddNote("paper: engaged Timeslice up to ~40%% on small-request apps; Disengaged Timeslice <~2%%; Disengaged FQ <~5%%")
	return t
}

// Fig5Sizes are the Throttle request sizes swept by Figures 5-7.
var Fig5Sizes = []float64{19, 64, 191, 425, 850, 1700}

// Fig5 reproduces Figure 5: standalone Throttle slowdown under each
// scheduler across request sizes.
func Fig5(opts Options) *report.Table {
	specs := make([]workload.Spec, len(Fig5Sizes))
	labels := make([]string, len(Fig5Sizes))
	for i, usz := range Fig5Sizes {
		specs[i] = throttleUS(usz)
		labels[i] = fmt.Sprintf("%.0fus", usz)
	}
	t := standalone(opts, "fig5", report.New("Figure 5: standalone Throttle slowdown vs request size",
		"Request size", "Timeslice", "Disengaged TS", "Disengaged FQ"), labels, specs)
	t.AddNote("per-request interception dominates engaged Timeslice at small sizes; the disengaged schedulers stay near 1x")
	return t
}
