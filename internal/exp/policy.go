package exp

// The policy experiment: the policy/mechanism split in action. Every
// cell runs the *same* mechanism stack — a mixed-class fleet (one
// k20, one consumer, one nextgen device), hint-aware fastest-fit
// placement, weighted DFQ per device, the round-based allocator — and
// varies only the declarative allocation policy driving it. Three
// probes isolate three objectives the one enforcement engine serves:
//
//   - "shares": saturating closed-loop tenants with a skewed 4:1:1
//     weight contract. Static passes the contract through verbatim, so
//     the light tenants split whatever the heavy one leaves on their
//     device; max-min caps the heavy tenant at what it can actually
//     consume (one closed-loop tenant draws at most one device) and
//     spreads placement by packed allocation, lifting the worst
//     tenant's normalized share. The hier row on this org-less
//     population is the flat fallback — hierarchical shares degenerate
//     to the static contract when nobody declares an org.
//   - "orgs": two organizations, acme (two tenants) and bitco, under
//     hier:acme=3,bitco=1. The crowd population enrolls three extra
//     bitco tenants; flat static weights dilute acme toward 3/7 of the
//     fleet while the hierarchical policy re-normalizes inside bitco
//     and holds acme's org share — the org-level isolation flat
//     weights cannot express.
//   - "cost": duty-cycled tenants leaving the fleet slack. Static's
//     fastest-fit greedy serves them on the fastest (priciest) class;
//     the cost policy hints the load onto the cheapest
//     price-per-work class first, cutting dollars per delivered work.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocPolicy resolves the Options' allocation policy for a fleet
// config: nil (no allocator) when unset, else the parsed policy.
// cmd/neonsim validates the name at flag-parse time, so an unparsable
// name here is a programming error, reported like other exp config
// panics.
func allocPolicy(o Options) policy.Policy {
	if o.Policy == "" {
		return nil
	}
	p, err := policy.Parse(o.Policy)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return p
}

// PolicyClasses is the experiment's fleet composition: one device per
// generation, so every policy faces the full speed spread.
func PolicyClasses() []string { return []string{"k20", "consumer", "nextgen"} }

// PolicyHierSpec is the orgs probe's hierarchical contract: acme buys
// three times bitco's org weight, whatever either org's headcount.
const PolicyHierSpec = "hier:acme=3,bitco=1"

// policyCell is one cell of the policy grid.
type policyCell struct {
	probe string // "shares", "orgs", "cost"
	pol   string // policy.Parse name
	pop   string // population variant ("-" outside the orgs probe)
}

// policyCells enumerates the grid in presentation order.
func policyCells() []policyCell {
	var cells []policyCell
	for _, pol := range []string{"static", "maxmin", "hier"} {
		cells = append(cells, policyCell{"shares", pol, "-"})
	}
	for _, pop := range []string{"base", "crowd"} {
		for _, pol := range []string{"static", PolicyHierSpec} {
			cells = append(cells, policyCell{"orgs", pol, pop})
		}
	}
	for _, pol := range []string{"static", "cost"} {
		cells = append(cells, policyCell{"cost", pol, "-"})
	}
	return cells
}

// PolicyResult is one cell of the policy grid.
type PolicyResult struct {
	Probe  string
	Policy string
	Pop    string

	// WorstEq is the worst tenant's delivered normalized work over the
	// equal split (min/mean) — the worst-case normalized share the
	// shares probe compares across policies.
	WorstEq float64
	// OrgShare is acme's fraction of delivered normalized work (orgs
	// probe; zero elsewhere).
	OrgShare float64
	// CostPerWork is dollars of busy device time per delivered
	// reference-device-second, priced by policy.DefaultPrices (cost
	// probe; zero elsewhere).
	CostPerWork float64
	// WorkPerSec is aggregate normalized work retired per second.
	WorkPerSec float64
	// Utilization is the mean per-node busy fraction of the window.
	Utilization float64
}

// policyPopulation returns the cell's tenant specs.
func policyPopulation(c policyCell) []workload.TenantSpec {
	us := sim.Duration(time.Microsecond)
	sat := func(name, org string, w float64) workload.TenantSpec {
		s := workload.Throttle(200*us, 0)
		s.Name = name
		return workload.TenantSpec{Spec: s, Weight: w, Org: org, Jitter: 0.2}
	}
	switch c.probe {
	case "shares":
		return []workload.TenantSpec{
			sat("heavy", "", 4), sat("light1", "", 1), sat("light2", "", 1),
		}
	case "orgs":
		specs := []workload.TenantSpec{
			sat("acme-a", "acme", 2), sat("acme-b", "acme", 1), sat("bitco-a", "bitco", 1),
		}
		if c.pop == "crowd" {
			for _, n := range []string{"bitco-b", "bitco-c", "bitco-d"} {
				specs = append(specs, sat(n, "bitco", 1))
			}
		}
		return specs
	case "cost":
		// Duty-cycled: each tenant sleeps most of the cycle, so the
		// aggregate demand fits in a fraction of the fleet and the
		// policies disagree about *which* devices to burn.
		var specs []workload.TenantSpec
		for _, n := range []string{"batch1", "batch2", "batch3"} {
			s := workload.Throttle(200*us, 0.8)
			s.Name = n
			specs = append(specs, workload.TenantSpec{Spec: s, Jitter: 0.2})
		}
		return specs
	}
	panic(fmt.Sprintf("exp: unknown policy probe %q", c.probe))
}

// RunPolicyCell runs one population under one allocation policy on the
// shared mixed-class mechanism stack.
func RunPolicyCell(o Options, c policyCell) PolicyResult {
	pol, err := policy.Parse(c.pol)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	specs := policyPopulation(c)
	f := runFleet(o, fleet.Config{
		Devices:     len(PolicyClasses()),
		Classes:     PolicyClasses(),
		Policy:      fleet.NewFastestFit(),
		Sched:       "dfq",
		DFQ:         TierShareDFQ(),
		AllocPolicy: pol,
	}, specs)

	res := PolicyResult{Probe: c.probe, Policy: c.pol, Pop: c.pop}
	var total core.Work
	var shares []float64
	var acme float64
	for i, t := range f.Tenants() {
		w := t.NormalizedWork()
		total += w
		shares = append(shares, float64(w))
		if specs[i].Org == "acme" {
			acme += float64(w)
		}
	}
	res.WorkPerSec = total.Duration().Seconds() / o.Measure.Seconds()
	res.Utilization = fleetUtilization(f, o.Measure)
	res.WorstEq = worstOverMean(shares)
	if c.probe == "orgs" && total > 0 {
		res.OrgShare = acme / float64(total)
	}
	if c.probe == "cost" {
		res.CostPerWork = costPerWork(f)
	}
	return res
}

// costPerWork prices the window's busy device time with the cost
// policy's price book and divides by the normalized work delivered:
// the dollars one reference-device-second of service actually cost.
func costPerWork(f *fleet.Fleet) float64 {
	prices := policy.DefaultPrices()
	var dollars float64
	var work core.Work
	for _, n := range f.Nodes() {
		p, ok := prices[n.Class.Name]
		if !ok {
			p = n.Speed()
		}
		dollars += n.BusySince().Seconds() * p
		work += n.WorkSince()
	}
	if work <= 0 {
		return 0
	}
	return dollars / work.Duration().Seconds()
}

// PolicyExp sweeps probe x policy (x population), every cell on the
// grid.
func PolicyExp(opts Options) *report.Table {
	results := grid(opts, "policy", policyCells(), RunPolicyCell)

	t := report.New("Policy: declarative allocation over the tenant x class matrix (mixed k20+consumer+nextgen fleet, one mechanism stack)",
		"probe", "policy", "pop", "worst/eq", "acme share", "$/work", "work/s", "util")
	for _, res := range results {
		org, dollars := "-", "-"
		if res.Probe == "orgs" {
			org = report.Pct(res.OrgShare)
		}
		if res.Probe == "cost" {
			dollars = report.F(res.CostPerWork, 2)
		}
		t.AddRow(
			res.Probe,
			res.Policy,
			res.Pop,
			report.F(res.WorstEq, 2),
			org,
			dollars,
			report.F(res.WorkPerSec, 2),
			report.Pct(res.Utilization),
		)
	}
	t.AddNote("every cell is the same mechanism stack (fastest-fit placement, weighted DFQ, round-based allocator); only the declarative policy differs")
	t.AddNote("shares probe: saturating tenants under a 4:1:1 contract — max-min's demand cap and packed placement lift the worst tenant's normalized share (worst/eq) over static's verbatim weights; hier without orgs is the flat fallback")
	t.AddNote("orgs probe: %s — the crowd population adds three bitco tenants; hierarchical shares hold acme's org share where flat static weights dilute it", PolicyHierSpec)
	t.AddNote("cost probe: duty-cycled tenants on a slack fleet; the cost policy steers work to the cheapest price-per-work class, cutting $/work vs static's fastest-first greedy")
	return t
}
