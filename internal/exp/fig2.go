package exp

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/workload"
)

// fig2Apps are the small-request applications the paper profiles.
var fig2Apps = []string{"glxgears", "oclParticles", "simpleTexture3D"}

// Fig2 reproduces Figure 2: CDFs of request inter-arrival periods and
// service periods for the three small-request applications, in
// log2-microsecond bins. One cell per application.
func Fig2(opts Options) *report.Table {
	t := report.New("Figure 2: request inter-arrival and service period CDFs (% <= bin)",
		"Application", "Series", "<2us", "<8us", "<32us", "<128us", "<512us", "<2ms")
	cuts := []int{1, 3, 5, 7, 9, 11} // log2(us) bin upper indexes

	specs := make([]workload.Spec, len(fig2Apps))
	for i, name := range fig2Apps {
		specs[i], _ = workload.ByName(name)
	}
	cdfs := grid(opts, "fig2", specs, func(o Options, spec workload.Spec) [2][18]float64 {
		rig := NewRig(Direct, o, spec)
		rig.Apps[0].Observe = true
		rig.Measure()
		app := rig.Apps[0]
		return [2][18]float64{app.InterArrival.CDF(), app.Service.CDF()}
	})

	for i, name := range fig2Apps {
		for j, series := range []string{"inter-arrival", "service"} {
			row := []string{name, series}
			for _, cut := range cuts {
				row = append(row, fmt.Sprintf("%.0f%%", cdfs[i][j][cut]))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("the paper's headline observation: a large share of requests are submitted back-to-back and serviced in <10us")
	return t
}
