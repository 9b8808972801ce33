package exp

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/workload"
)

// FleetDeviceCounts is the device-count sweep of the fleet experiment.
var FleetDeviceCounts = []int{2, 4, 8}

// FleetResult is one cell of the fleet grid: a device count, a
// placement policy, and a tenant mix, measured together.
type FleetResult struct {
	Devices int
	Policy  string
	Mix     string
	Tenants int

	// RoundsPerSec is aggregate completed tenant rounds per second —
	// the fleet's useful throughput.
	RoundsPerSec float64
	// Utilization is summed exec-engine busy time over devices × window.
	Utilization float64
	// Jain is Jain's fairness index over saturating tenants' received
	// device time (1.0 = perfectly fair).
	Jain float64
	// WorstShare is the worst saturating tenant's received device time
	// relative to the mean — the per-tenant fairness floor.
	WorstShare float64
	// MigrationsPerKRound counts placements that moved a tenant off its
	// previous device, per thousand rounds.
	MigrationsPerKRound float64
}

// RunFleetCell builds one fleet (its own engine, N per-device stacks),
// runs the tenant population through warmup and measurement, and
// reports the cell's throughput and fairness.
func RunFleetCell(o Options, devices int, policyName, mix string) FleetResult {
	policy, err := fleet.NewPolicy(policyName)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	tenants := workload.FleetPopulation(devices, mix)
	f := runFleet(o, fleet.Config{Devices: devices, Policy: policy}, tenants)

	res := FleetResult{
		Devices: devices,
		Policy:  policy.Name(),
		Mix:     mix,
		Tenants: len(tenants),
	}
	var rounds int64
	for _, t := range f.Tenants() {
		rounds += t.Rounds
	}
	seconds := o.Measure.Seconds()
	res.RoundsPerSec = float64(rounds) / seconds
	res.Utilization = fleetUtilization(f, o.Measure)

	// Fairness over saturating tenants: under fair queueing, competing
	// saturating tenants should receive equal device time regardless of
	// request size — the paper's fairness notion, fleet-wide.
	var shares []float64
	for _, t := range f.Tenants() {
		if t.Spec.SleepRatio > 0 {
			continue
		}
		shares = append(shares, float64(t.ServiceTime()))
	}
	res.Jain = metrics.JainIndex(shares)
	res.WorstShare = worstOverMean(shares)

	if rounds > 0 {
		res.MigrationsPerKRound = 1000 * float64(f.Migrations) / float64(rounds)
	}
	return res
}

// worstOverMean returns min(xs)/mean(xs), or 0 for empty input.
func worstOverMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, sum := xs[0], 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	return min / mean
}

// FleetExp sweeps device count × placement policy × tenant mix, every
// cell on the grid.
func FleetExp(opts Options) *report.Table {
	type cell struct {
		devs   int
		policy string
		mix    string
	}
	// The class-blind trio: on this experiment's homogeneous fleets the
	// class-aware policies (fastest-fit, class-sticky) degenerate to
	// least-loaded and sticky, so sweeping them here would only
	// duplicate rows — the hetero experiment is where they differ.
	policies := []string{"rr", "least-loaded", "sticky"}
	var cells []cell
	for _, devs := range FleetDeviceCounts {
		for _, policy := range policies {
			for _, mix := range workload.FleetMixes() {
				cells = append(cells, cell{devs, policy, mix})
			}
		}
	}
	results := grid(opts, "fleet", cells, func(o Options, c cell) FleetResult {
		return RunFleetCell(o, c.devs, c.policy, c.mix)
	})

	t := report.New("Fleet: device count x placement policy (per-device DFQ, fleet-wide virtual time)",
		"devices", "policy", "mix", "tenants", "rounds/s", "util", "Jain", "worst/mean", "migr/kround")
	for _, res := range results {
		t.AddRow(
			fmt.Sprintf("%d", res.Devices),
			res.Policy,
			res.Mix,
			fmt.Sprintf("%d", res.Tenants),
			report.F(res.RoundsPerSec, 0),
			report.Pct(res.Utilization),
			report.F(res.Jain, 3),
			report.F(res.WorstShare, 2),
			report.F(res.MigrationsPerKRound, 1),
		)
	}
	t.AddNote("locality-sticky keeps tenants on their warm device (MQFQ-Sticky), avoiding working-set reconstruction")
	t.AddNote("round-robin migrates nearly every round and pays the cold-start capacity tax for it")
	t.AddNote("fairness (Jain, worst/mean) is computed over saturating tenants' received device time, fleet-wide")
	return t
}
