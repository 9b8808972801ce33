package exp

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/workload"
)

// Table1 reproduces the paper's Table 1: per-application round times and
// mean request sizes, measured standalone under direct device access, one
// cell per application.
func Table1(opts Options) *report.Table {
	rows := grid(opts, "table1", workload.Table1(), func(o Options, spec workload.Spec) []string {
		rig := NewRig(Direct, o, spec)
		round := rig.Measure()[0]
		app := rig.Apps[0]

		reqCell := report.F(float64(app.MeanRequest(gpu.Compute))/float64(time.Microsecond), 0)
		paperReq := report.F(spec.PaperReqUS, 0)
		if spec.PaperReq2US > 0 {
			reqCell += "/" + report.F(float64(app.MeanRequest(gpu.Graphics))/float64(time.Microsecond), 0)
			paperReq += "/" + report.F(spec.PaperReq2US, 0)
		} else if len(spec.Channels) == 1 && spec.Channels[0] == gpu.Graphics {
			reqCell = report.F(float64(app.MeanRequest(gpu.Graphics))/float64(time.Microsecond), 0)
		}
		return []string{spec.Name, spec.Area,
			report.F(float64(round)/float64(time.Microsecond), 0),
			report.F(spec.PaperRoundUS, 0),
			reqCell, paperReq}
	})
	t := report.New("Table 1: benchmark characteristics (standalone, direct access)",
		"Application", "Area", "us/round", "paper", "us/request", "paper")
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("rounds and request means are measured through the simulated stack; 'paper' columns are Table 1's values")
	return t
}
