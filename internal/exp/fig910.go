package exp

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/workload"
)

// fig9Ratios are the Throttle off-period ratios of Figures 9 and 10.
var fig9Ratios = []float64{0, 0.2, 0.5, 0.8}

// nonsatRows returns the Section 5.4 matrix rows: DCT against a 425us
// Throttle that sleeps the given fraction of each cycle.
func nonsatRows(ratios []float64) [][]workload.Spec {
	dct, _ := workload.ByName("DCT")
	rows := make([][]workload.Spec, len(ratios))
	for i, ratio := range ratios {
		rows[i] = []workload.Spec{dct, workload.Throttle(425*time.Microsecond, ratio)}
	}
	return rows
}

// runFig910 runs the matrix Figures 9 and 10 render, indexed
// [ratio][sched] over AllScheds.
func runFig910(opts Options) [][]MixResult {
	return runMatrix(opts, "nonsat", nonsatRows(fig9Ratios), AllScheds())
}

func fig9Table(matrix [][]MixResult) *report.Table {
	t := report.New("Figure 9: nonsaturating workloads — fairness (DCT vs Throttle(425us) with off periods)",
		"Off ratio", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ")
	for i, ratio := range fig9Ratios {
		row := []string{fmt.Sprintf("%.0f%%", ratio*100)}
		for _, r := range matrix[i] {
			row = append(row, fmt.Sprintf("%.2f/%.2f", r.Slowdowns[0], r.Slowdowns[1]))
		}
		t.AddRow(row...)
	}
	t.AddNote("cells are DCT/Throttle slowdowns; under Disengaged FQ the Throttle does not suffer and DCT benefits from its idleness")
	return t
}

func fig10Table(matrix [][]MixResult) *report.Table {
	t := report.New("Figure 10: nonsaturating workloads — efficiency",
		"Off ratio", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ", "TS loss", "DTS loss", "DFQ loss")
	for i, ratio := range fig9Ratios {
		row := []string{fmt.Sprintf("%.0f%%", ratio*100)}
		for _, r := range matrix[i] {
			row = append(row, report.F(r.Efficiency, 2))
		}
		base := matrix[i][0].Efficiency // direct
		for _, r := range matrix[i][1:] {
			loss := 0.0
			if base > 0 {
				loss = 1 - r.Efficiency/base
			}
			row = append(row, report.Pct(loss))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper at 80%% off: losses vs direct are 36%% (Timeslice), 34%% (Disengaged TS), ~0%% (Disengaged FQ)")
	return t
}
