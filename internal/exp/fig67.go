package exp

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/workload"
)

// fig6Pairs are the application/Throttle pairings of Figures 6 and 7.
var fig6Pairs = []string{"DCT", "FFT", "glxgears", "oclParticles"}

// fig67Sizes trims the sweep for the default harness (the paper plots
// 19us-1.7ms; four sizes keep the matrix readable).
var fig67Sizes = []float64{19, 191, 425, 1700}

// throttleUS returns a saturating Throttle of the given request size in
// microseconds.
func throttleUS(usz float64) workload.Spec {
	return workload.Throttle(time.Duration(usz*float64(time.Microsecond)), 0)
}

// fig67Rows returns the matrix rows of Figures 6 and 7 — each listed
// application against Throttle at each size — and their labels.
func fig67Rows() (labels []string, rows [][]workload.Spec) {
	for _, name := range fig6Pairs {
		spec, _ := workload.ByName(name)
		for _, usz := range fig67Sizes {
			labels = append(labels, fmt.Sprintf("%s vs Thr(%.0fus)", name, usz))
			rows = append(rows, []workload.Spec{spec, throttleUS(usz)})
		}
	}
	return labels, rows
}

// runFig67 runs the matrix Figures 6 and 7 render, indexed [pair][sched]
// over AllScheds.
func runFig67(opts Options) [][]MixResult {
	_, rows := fig67Rows()
	return runMatrix(opts, "pairs", rows, AllScheds())
}

func fig6Table(matrix [][]MixResult) *report.Table {
	t := report.New("Figure 6: pairwise fairness (slowdown vs running alone, app/Throttle)",
		"Pair", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ")
	labels, _ := fig67Rows()
	for i, pair := range matrix {
		row := []string{labels[i]}
		for _, r := range pair {
			row = append(row, fmt.Sprintf("%.2f/%.2f", r.Slowdowns[0], r.Slowdowns[1]))
		}
		t.AddRow(row...)
	}
	t.AddNote("direct access is grossly unfair (>10x possible); the fair schedulers hold both co-runners near 2x")
	t.AddNote("glxgears and oclParticles under Disengaged FQ show the paper's estimation anomalies (Section 5.3)")
	return t
}

func fig7Table(matrix [][]MixResult) *report.Table {
	t := report.New("Figure 7: concurrency efficiency (sum of resource shares)",
		"Pair", "direct", "Timeslice", "Disengaged TS", "Disengaged FQ")
	labels, _ := fig67Rows()
	for i, pair := range matrix {
		row := []string{labels[i]}
		for _, r := range pair {
			row = append(row, report.F(r.Efficiency, 2))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: efficiency losses vs direct average 19%% (Timeslice), 10%% (Disengaged TS), 4%% (Disengaged FQ)")
	return t
}

// Fig8 reproduces Figure 8: four concurrent applications (Throttle 425us,
// BinarySearch, DCT, FFT) — per-app slowdowns plus overall efficiency,
// one cell per scheduler.
func Fig8(opts Options) *report.Table {
	bs, _ := workload.ByName("BinarySearch")
	dct, _ := workload.ByName("DCT")
	fft, _ := workload.ByName("FFT")
	mixes := runMatrix(opts, "fig8", [][]workload.Spec{{throttleUS(425), bs, dct, fft}}, AllScheds())[0]

	t := report.New("Figure 8: four concurrent applications",
		"Scheduler", "Throttle(425us)", "BinarySearch", "DCT", "FFT", "efficiency")
	for i, s := range AllScheds() {
		row := []string{s.Label()}
		for _, sd := range mixes[i].Slowdowns {
			row = append(row, report.X(sd))
		}
		row = append(row, report.F(mixes[i].Efficiency, 2))
		t.AddRow(row...)
	}
	t.AddNote("paper: average slowdown stays at 4-5x; efficiency loss vs direct is 13%% engaged, 8%%/7%% disengaged")
	return t
}
