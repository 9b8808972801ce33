package exp

// The tiers experiment: contract-driven sharing — per-tenant fair-share
// weights and SLO service tiers — in two probes that each isolate one
// layer. The paper's fair queueing gives every tenant an equal share;
// production multi-tenant serving sells unequal ones (MQFQ-Sticky's
// weighted virtual-time throttling, Gavel's weighted policies).
//
//   - The "shares" probe is closed-loop: three always-backlogged
//     saturating tenants on one DFQ device, so the scheduler alone sets
//     the split. Weighted DFQ holds each tenant's normalized share
//     proportional to its weight (a 4x premium receives ~4x a standard
//     tenant's device time); the unweighted ablation — the identical
//     population with the contract ignored — flattens the premium
//     tenant back to parity, as does timeslice's unweighted rotation.
//   - The "serve" probe is open-loop: premium/standard/best-effort
//     streams of equal offered demand against tier-aware admission
//     under overload. Best-effort is refused first (half the standard
//     depth bound) and premium last (1.25x of it), so through overload
//     levels that shed best-effort entirely the premium stream's shed
//     rate stays zero and its p99 stays flat.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// DefaultTierRatios is the premium-weight sweep of the shares probe:
// the premium tenant's fair-share weight relative to the standard and
// best-effort tenants' weight of 1.
var DefaultTierRatios = []float64{2, 4}

// DefaultTierLoads is the serve probe's load-factor sweep: just past
// saturation, and deep overload where the admission tiers separate.
// Each stream offers a third of the total, so at 1.8 the premium stream
// demands 0.6 of fleet capacity — under its 2/3 entitlement at the 4x
// weight (no premium queue growth, no premium shedding) while standard
// and best-effort demand far beyond theirs and must be throttled and
// shed.
var DefaultTierLoads = []float64{1.2, 1.8}

// TiersDevices is the serve probe's fleet size. The shares probe runs
// on a single device: a closed-loop tenant submits one round at a time
// and so can draw at most one device's worth of service, which would
// cap a 4x entitlement on a multi-device fleet below its proportional
// share.
const TiersDevices = 2

// TierSchedNames lists the per-device schedulers the shares probe
// compares: weighted disengaged fair queueing against token-passing
// timeslice, whose unweighted rotation cannot deliver proportional
// shares.
func TierSchedNames() []string { return []string{"ts", "dfq"} }

// TierAccountings lists the two contract rules each DFQ shares cell
// runs under: "weighted" applies the declared weights to every
// virtual-time charge; "flat" is the unweighted ablation — the
// identical population, with every task charged at weight 1.
func TierAccountings() []string { return []string{"weighted", "flat"} }

// tierRole is one of the experiment's three fixed principals.
type tierRole struct {
	name string
	// share is the role's fraction of the serve probe's offered load.
	// The roles offer equal demand, so any separation in the measured
	// table is the scheduler's (weights) or the front door's (tiers)
	// doing — never an artifact of asymmetric offered load.
	share float64
	size  sim.Duration
	tier  workload.Tier
}

// tierRoles returns the premium/standard/best-effort roles in order.
func tierRoles() []tierRole {
	const us = time.Microsecond
	return []tierRole{
		{"premium", 1.0 / 3, 200 * us, workload.TierPremium},
		{"standard", 1.0 / 3, 250 * us, workload.TierStandard},
		{"best-effort", 1.0 / 3, 300 * us, workload.TierBestEffort},
	}
}

// TierWeightVectors resolves the weight sweep for these Options: each
// vector holds the premium/standard/best-effort weights of one shares
// row. The -weights override collapses the sweep to exactly that
// contract.
func (o Options) TierWeightVectors() [][3]float64 {
	if len(o.Weights) == 3 {
		return [][3]float64{{o.Weights[0], o.Weights[1], o.Weights[2]}}
	}
	out := make([][3]float64, len(DefaultTierRatios))
	for i, r := range DefaultTierRatios {
		out[i] = [3]float64{r, 1, 1}
	}
	return out
}

// TierServeWeights resolves the serve probe's contract: the -weights
// override, or the steepest ratio of the default sweep.
func (o Options) TierServeWeights() [3]float64 {
	vecs := o.TierWeightVectors()
	return vecs[len(vecs)-1]
}

// TierLoads resolves the serve probe's load sweep for these Options.
func (o Options) TierLoads() []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	return DefaultTierLoads
}

// tierAssignments resolves the per-role admission tiers, applying the
// -tiers override when present.
func (o Options) tierAssignments() [3]workload.Tier {
	roles := tierRoles()
	out := [3]workload.Tier{roles[0].tier, roles[1].tier, roles[2].tier}
	if len(o.Tiers) == 3 {
		for i, t := range o.Tiers {
			out[i] = t.Normalize()
		}
	}
	return out
}

// TierPopulation returns the serve probe's three open-loop streams: a
// Poisson premium aggregate, a Poisson standard aggregate, and a bursty
// MMPP best-effort scraper, with offered device time summing to load x
// devices and the given weights/tiers attached. The streams are
// stateless (no working set): the probe isolates the front door and the
// weighted ledgers, not placement locality.
func TierPopulation(devices int, load float64, weights [3]float64, tiers [3]workload.Tier) []traffic.Stream {
	budget := load * float64(devices) // offered device-seconds per second
	streams := make([]traffic.Stream, 0, 3)
	for i, role := range tierRoles() {
		rate := budget * role.share / role.size.Seconds()
		spec := workload.OpenLoopTenant(role.name, role.size, 0)
		spec.Weight = weights[i]
		spec.Tier = tiers[i]
		var arrival traffic.Arrival
		switch role.tier {
		case workload.TierBestEffort:
			// Silent between bursts, 4x its mean rate during them — the
			// batch scraper the front door exists to shed first.
			arrival = traffic.NewMMPP(0, 4*rate, 30*time.Millisecond, 10*time.Millisecond)
		default:
			arrival = traffic.Poisson{Rate: rate}
		}
		streams = append(streams, traffic.Stream{Tenant: spec, Arrival: arrival})
	}
	return streams
}

// TierResult is one cell of the tiers grid.
type TierResult struct {
	// Probe is "shares" (closed-loop, scheduler only) or "serve"
	// (open-loop, tiered admission). Serve-only fields are zero on
	// shares rows and rendered as "-".
	Probe string
	Load  float64
	Sched string
	Acct  string
	// Weights is the declared premium/standard/best-effort contract
	// (applied to the schedulers only when Acct is "weighted").
	Weights [3]float64

	// PremStdRatio is the premium principal's received normalized work
	// over the standard principal's — ~Weights[0] under weighted DFQ,
	// ~1 flat.
	PremStdRatio float64
	// WorstEntitled is the worst principal's delivered fraction of its
	// weighted entitlement: min over principals of work_i divided by
	// (weight_i/sum(weights) x total delivered work). Proportional
	// sharing puts every backlogged principal at ~1; one under its
	// entitlement because its contract is being ignored (flat
	// accounting, timeslice rotation) falls well below. InBound reports
	// WorstEntitled >= HeteroFairBound.
	WorstEntitled float64
	InBound       bool
	// PremP99 is the premium stream's sojourn-time tail (serve probe).
	PremP99 time.Duration
	// Shed rates per role, in role order (serve probe).
	PremShed, StdShed, BEShed float64
	// Utilization is the mean per-node busy fraction of the window.
	Utilization float64
}

// shareTenants measures the weighted-fairness columns over the fleet's
// tenants in launch order, dividing by the *declared* weights in every
// accounting mode — under "flat" that is exactly what exposes the
// flattened contract.
func (r *TierResult) shareTenants(tenants []*fleet.Tenant, weights [3]float64) {
	work := make([]float64, len(tenants))
	var total, weightSum float64
	for i, tn := range tenants {
		work[i] = float64(tn.NormalizedWork())
		total += work[i]
		weightSum += weights[i]
	}
	if work[1] > 0 {
		r.PremStdRatio = work[0] / work[1]
	}
	if total > 0 {
		for i := range work {
			f := work[i] / (weights[i] / weightSum * total)
			if i == 0 || f < r.WorstEntitled {
				r.WorstEntitled = f
			}
		}
	}
	r.InBound = r.WorstEntitled >= HeteroFairBound
}

// TierShareDFQ is the shares probe's DFQ configuration: a 1 ms sample
// period and a 3x free run, i.e. an engagement cycle several times
// shorter than the paper's default. Weighted fair queueing acts only
// through denial at engagement boundaries, so the share split converges
// at the cycle rate; the default ~90 ms cycle needs seconds to express
// a 4x contract, while this one settles well inside the quick
// measurement window. (The ablation-params experiment sweeps exactly
// these knobs.)
func TierShareDFQ() core.DFQConfig {
	return core.DFQConfig{
		SamplePeriod:      time.Millisecond,
		FreeRunMultiplier: 3,
	}
}

// RunTierShareCell runs the closed-loop shares probe: three saturating
// tenants with the declared weights on one device under the given
// scheduler, with nothing but the scheduler deciding the split.
func RunTierShareCell(o Options, sched, acct string, weights [3]float64) TierResult {
	applied := weights
	if acct == "flat" {
		applied = [3]float64{1, 1, 1} // the contract exists but is ignored
	}
	var specs []workload.TenantSpec
	for i, role := range tierRoles() {
		s := workload.Throttle(300*time.Microsecond, 0)
		s.Name = role.name
		specs = append(specs, workload.TenantSpec{Spec: s, Jitter: 0.2, Weight: applied[i], Tier: role.tier})
	}
	f := runFleet(o, fleet.Config{
		Devices:     1,
		Policy:      fleet.NewLocalitySticky(fleet.DefaultStickyDepth),
		Sched:       sched,
		DFQ:         TierShareDFQ(),
		AllocPolicy: allocPolicy(o),
	}, specs)

	res := TierResult{Probe: "shares", Sched: sched, Acct: acct, Weights: weights}
	res.shareTenants(f.Tenants(), weights)
	res.Utilization = fleetUtilization(f, o.Measure)
	return res
}

// RunTierServeCell runs the open-loop serve probe: the tiered
// population against weighted DFQ and tier-aware admission at one load
// factor.
func RunTierServeCell(o Options, load float64, weights [3]float64) TierResult {
	srv := serve(o, traffic.Config{
		Fleet: fleet.Config{
			Devices:     TiersDevices,
			Policy:      fleet.NewLocalitySticky(ServeAdmitDepth),
			Sched:       "dfq",
			AllocPolicy: allocPolicy(o),
		},
		AdmitDepth: ServeAdmitDepth * TiersDevices,
		Streams:    TierPopulation(TiersDevices, load, weights, o.tierAssignments()),
	})

	res := TierResult{Probe: "serve", Load: load, Sched: "dfq", Acct: "weighted", Weights: weights}
	res.shareTenants(srv.Fleet().Tenants(), weights)
	// The entitlement floor presumes every principal keeps demanding its
	// share; the front door deliberately breaks that by shedding
	// best-effort demand, so the fairness verdict is a shares-probe
	// column only.
	res.WorstEntitled, res.InBound = 0, false
	res.PremP99 = srv.Stats(0).Latency.Quantile(0.99)
	res.PremShed = srv.Stats(0).ShedRate()
	res.StdShed = srv.Stats(1).ShedRate()
	res.BEShed = srv.Stats(2).ShedRate()
	res.Utilization = fleetUtilization(srv.Fleet(), o.Measure)
	return res
}

// TiersExp runs the shares probe over weight ratio x scheduler (with
// the unweighted ablation beside every weighted DFQ cell) and the serve
// probe over the overload sweep, every cell on the grid.
func TiersExp(opts Options) *report.Table {
	type cell struct {
		probe   string
		load    float64
		sched   string
		acct    string
		weights [3]float64
	}
	var cells []cell
	for _, weights := range opts.TierWeightVectors() {
		for _, sched := range TierSchedNames() {
			accts := TierAccountings()
			if sched != "dfq" {
				// The ablation isolates DFQ's weighted virtual time;
				// timeslice's token rotation is unweighted either way.
				accts = []string{"weighted"}
			}
			for _, acct := range accts {
				cells = append(cells, cell{"shares", 0, sched, acct, weights})
			}
		}
	}
	for _, load := range opts.TierLoads() {
		cells = append(cells, cell{"serve", load, "dfq", "weighted", opts.TierServeWeights()})
	}

	results := grid(opts, "tiers", cells, func(o Options, c cell) TierResult {
		if c.probe == "shares" {
			return RunTierShareCell(o, c.sched, c.acct, c.weights)
		}
		return RunTierServeCell(o, c.load, c.weights)
	})

	t := report.New(fmt.Sprintf("Tiers: weighted shares (closed-loop, 1 device) and SLO admission tiers (open-loop, %d devices)", TiersDevices),
		"probe", "load", "sched", "acct", "weights", "prem/std", "entitled", "fair",
		"prem p99", "shed prem", "shed std", "shed b-e", "util")
	for _, res := range results {
		fair := "no"
		if res.InBound {
			fair = "yes"
		}
		load, p99, shedP, shedS, shedB := "-", "-", "-", "-", "-"
		entitled := report.F(res.WorstEntitled, 2)
		if res.Probe == "serve" {
			load = report.F(res.Load, 2)
			p99 = report.MS(res.PremP99)
			shedP = report.Pct(res.PremShed)
			shedS = report.Pct(res.StdShed)
			shedB = report.Pct(res.BEShed)
			entitled, fair = "-", "-"
		}
		t.AddRow(
			res.Probe,
			load,
			res.Sched,
			res.Acct,
			fmt.Sprintf("%g:%g:%g", res.Weights[0], res.Weights[1], res.Weights[2]),
			report.F(res.PremStdRatio, 2),
			entitled,
			fair,
			p99,
			shedP,
			shedS,
			shedB,
			report.Pct(res.Utilization),
		)
	}
	t.AddNote("shares probe: three saturating closed-loop tenants on one device — the scheduler alone sets the split; weights are premium:standard:best-effort")
	t.AddNote("acct=weighted charges every virtual-time ledger at charge/weight; acct=flat is the unweighted ablation — same population, contract ignored")
	t.AddNote("prem/std is received normalized work: ~the declared ratio under weighted dfq, flattened to ~1x under flat accounting or timeslice rotation")
	t.AddNote("entitled is the worst principal's delivered fraction of its weighted entitlement; fair = within %.2f, the single-device DFQ bound", HeteroFairBound)
	t.AddNote("serve probe: equal offered thirds (Poisson premium/standard, bursty MMPP best-effort) against tier-aware admission — best-effort sheds at half the standard depth bound, premium only past 1.25x of it, so premium shed stays 0 and its p99 flat through overload that sheds best-effort")
	return t
}
