package exp

// The hetero experiment: fairness on a fleet that mixes device
// generations. The paper's guarantee is stated in device time on one
// GPU; on a mixed fleet a second of consumer-card time is not a second
// of K20 time, so the DFQ ledgers (and the fleet board they reconcile
// through) charge *normalized work* — observed device time scaled by
// the class speed factor. This experiment demonstrates both directions
// of that argument: with normalized accounting every tenant's
// normalized service stays within the single-device fairness bound no
// matter which class serves it, while the raw-device-time ablation
// (DFQConfig.RawCharges) systematically overcharges — and therefore
// starves — tenants stuck on slow devices.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/workload"
)

// HeteroMix is one fleet composition of the hetero grid: a display name
// and the per-device class list (fleet.Config.Classes).
type HeteroMix struct {
	Name    string
	Classes []string
}

// DefaultHeteroMixes is the class-mix sweep: a two-class pair, a
// slow-heavy triple, and a fleet spanning three generations.
func DefaultHeteroMixes() []HeteroMix {
	return []HeteroMix{
		{"k20+consumer", []string{"k20", "consumer"}},
		{"k20+2consumer", []string{"k20", "consumer", "consumer"}},
		{"k20+consumer+nextgen", []string{"k20", "consumer", "nextgen"}},
	}
}

// HeteroMixes resolves the class-mix sweep for these Options: the
// -classes override collapses the grid to exactly that composition.
func (o Options) HeteroMixes() []HeteroMix {
	if len(o.Classes) > 0 {
		return []HeteroMix{{strings.Join(o.Classes, "+"), o.Classes}}
	}
	return DefaultHeteroMixes()
}

// HeteroAccountings lists the two DFQ charge rules the grid compares:
// normalized work versus raw device time.
func HeteroAccountings() []string { return []string{"norm", "raw"} }

// HeteroPlaceNames lists the placement policies the hetero grid
// compares: class-blind sticky against the two heterogeneity-aware
// policies.
func HeteroPlaceNames() []string { return []string{"sticky", "fastest-fit", "class-sticky"} }

// HeteroFairBound is the single-device DFQ fairness floor the hetero
// table checks normalized shares against: the worst saturating tenant's
// normalized service must stay within this fraction of the mean —
// the same bound the fleet experiment's fairness tests enforce on a
// homogeneous fleet.
const HeteroFairBound = 0.85

// HeteroResult is one cell of the hetero grid.
type HeteroResult struct {
	Mix        string
	Accounting string
	Place      string
	Tenants    int

	// WorkPerSec is aggregate normalized work retired per second, in
	// reference-device-seconds per second (the fleet's effective
	// capacity in K20 units; e.g. a saturated k20+consumer pair is 1.5).
	WorkPerSec float64
	// Utilization is the mean per-node busy fraction of the window.
	Utilization float64
	// Jain is Jain's fairness index over saturating tenants' received
	// normalized work.
	Jain float64
	// WorstShare is the worst saturating tenant's normalized work
	// relative to the mean; InBound reports WorstShare >= HeteroFairBound.
	WorstShare float64
	InBound    bool
}

// RunHeteroCell builds one mixed-class fleet, runs the uniform
// saturating population through warmup and measurement, and reports
// normalized throughput and normalized fairness.
func RunHeteroCell(o Options, mix HeteroMix, accounting, place string) HeteroResult {
	policy, err := fleet.NewPolicy(place)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	tenants := workload.FleetPopulation(len(mix.Classes), "uniform")
	f := runFleet(o, fleet.Config{
		Devices: len(mix.Classes),
		Classes: mix.Classes,
		Policy:  policy,
		Sched:   "dfq",
		DFQ:     core.DFQConfig{RawCharges: accounting == "raw"},
	}, tenants)

	res := HeteroResult{
		Mix:        mix.Name,
		Accounting: accounting,
		Place:      place,
		Tenants:    len(tenants),
	}
	var total core.Work
	var shares []float64
	for _, t := range f.Tenants() {
		w := t.NormalizedWork()
		total += w
		shares = append(shares, float64(w))
	}
	res.WorkPerSec = total.Duration().Seconds() / o.Measure.Seconds()
	res.Utilization = fleetUtilization(f, o.Measure)
	res.Jain = metrics.JainIndex(shares)
	res.WorstShare = worstOverMean(shares)
	res.InBound = res.WorstShare >= HeteroFairBound
	return res
}

// HeteroExp sweeps class mix x DFQ accounting (normalized vs raw) x
// placement policy, every cell on the grid.
func HeteroExp(opts Options) *report.Table {
	type cell struct {
		mix   HeteroMix
		acct  string
		place string
	}
	var cells []cell
	for _, mix := range opts.HeteroMixes() {
		for _, acct := range HeteroAccountings() {
			for _, place := range HeteroPlaceNames() {
				cells = append(cells, cell{mix, acct, place})
			}
		}
	}
	results := grid(opts, "hetero", cells, func(o Options, c cell) HeteroResult {
		return RunHeteroCell(o, c.mix, c.acct, c.place)
	})

	t := report.New("Hetero: mixed device classes, normalized vs raw DFQ accounting (uniform saturating tenants)",
		"mix", "acct", "place", "tenants", "work/s", "util", "Jain", "worst/mean", "fair")
	for _, res := range results {
		fair := "no"
		if res.InBound {
			fair = "yes"
		}
		t.AddRow(
			res.Mix,
			res.Accounting,
			res.Place,
			fmt.Sprintf("%d", res.Tenants),
			report.F(res.WorkPerSec, 2),
			report.Pct(res.Utilization),
			report.F(res.Jain, 3),
			report.F(res.WorstShare, 2),
			fair,
		)
	}
	t.AddNote("work/s is normalized work (reference-device-seconds per second): a saturated k20+consumer pair retires 1.5")
	t.AddNote("fairness (Jain, worst/mean) is over per-tenant *normalized* service; fair = worst/mean >= %.2f, the single-device DFQ bound", HeteroFairBound)
	t.AddNote("acct=norm charges virtual time in work units (device time x class speed); acct=raw is the pre-heterogeneity ablation, which overcharges slow-device tenants until they starve")
	t.AddNote("fastest-fit and class-sticky read class speeds; sticky is class-blind and keeps tenants wherever they first landed")
	return t
}
