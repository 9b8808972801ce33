// Package policy is the declarative allocation layer of the
// policy/mechanism split: a Policy consumes a Snapshot of the
// tenant×class throughput matrix (device classes and their speeds from
// the cost registry, tenant contract terms and offered demand from the
// fleet) and returns Targets — allocation fractions per (tenant,
// class) plus the effective fair-share weights that enforce them.
//
// The split follows "Heterogeneity-Aware Cluster Scheduling Policies"
// (Gavel): policies *decide* allocations over the throughput matrix;
// a round-based mechanism — the fleet's allocator translating targets
// into DFQ weights and placement hints, and traffic admission reading
// tier bounds off the targets — *enforces* them. One enforcement
// engine therefore serves max-min fairness, hierarchical proportional
// shares, and cost objectives, and the paper's disengaged schedulers
// stay pure mechanism underneath.
//
// Policies here are pure functions of the snapshot: no clocks, no
// RNGs, no references into fleet state. That keeps every allocation
// round deterministic and lets the differential tests replay policies
// against synthetic matrices.
package policy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Tenant is one row of the throughput-matrix snapshot: the contract
// terms the policy allocates against.
type Tenant struct {
	// Name is the tenant's fleet identity.
	Name string
	// Org is the tenant's organization (sibling group) for hierarchical
	// policies; empty means the tenant stands alone at the top level.
	Org string
	// Weight is the tenant's spec fair-share weight (ShareWeight: the
	// unset default is 1, never zero).
	Weight float64
	// Tier is the tenant's admission service tier, normalized.
	Tier workload.Tier
	// Demand is the tenant's offered-load ceiling in normalized work
	// per second: the most reference-class device time it can consume
	// per wall second, given its duty cycle and the fastest class it
	// could be placed on. Saturating tenants on a fleet whose fastest
	// class runs at speed v have Demand v.
	Demand float64
}

// Class is one column of the snapshot: a device generation present in
// the fleet and how many devices of it there are.
type Class struct {
	// Name identifies the class (cost.Class.Name).
	Name string
	// Speed is the class's relative throughput factor.
	Speed float64
	// Devices is how many fleet devices are of this class.
	Devices int
}

// Capacity returns the class's normalized-work throughput: devices
// times speed, in reference-device-seconds per second.
func (c Class) Capacity() float64 { return float64(c.Devices) * c.Speed }

// Snapshot is the tenant×class matrix a policy allocates over.
type Snapshot struct {
	Tenants []Tenant
	Classes []Class
}

// Capacity returns the fleet's total normalized-work throughput.
func (s Snapshot) Capacity() float64 {
	var sum float64
	for _, c := range s.Classes {
		sum += c.Capacity()
	}
	return sum
}

// Targets is a policy's answer: who should get how much, where, and
// the weights that make the mechanism deliver it.
type Targets struct {
	// Alloc[i][c] is the fraction of class c's capacity targeted at
	// tenant i (rows parallel Snapshot.Tenants, columns
	// Snapshot.Classes). Each column sums to at most 1. A policy with
	// no placement opinion splits every class proportionally, which
	// yields no class preference (see ClassPreference).
	Alloc [][]float64
	// Weight[i] is the effective fair-share weight enforcing tenant
	// i's aggregate share through the weighted-DFQ mechanism. Zero
	// means "no opinion": the mechanism keeps the tenant's spec
	// weight. The static policy passes spec weights through verbatim —
	// bit-for-bit, not reconstructed from shares — because DFQ's
	// denial compares absolute leads against the free-run horizon, so
	// weights are not scale-invariant.
	Weight []float64
}

// Share returns tenant i's aggregate target fraction of fleet
// normalized throughput implied by the allocation matrix.
func (t Targets) Share(s Snapshot, i int) float64 {
	total := s.Capacity()
	if total <= 0 || i >= len(t.Alloc) {
		return 0
	}
	var got float64
	for c, frac := range t.Alloc[i] {
		got += frac * s.Classes[c].Capacity()
	}
	return got / total
}

// ClassPreference returns the speeds of the classes the targets
// concentrate tenant i in: classes where the tenant's fraction of the
// class exceeds its aggregate share. A proportionally split row (the
// no-opinion allocation) returns nil, so policies without placement
// preferences leave the placement mechanism exactly as it was.
func ClassPreference(s Snapshot, t Targets, i int) []float64 {
	if i >= len(t.Alloc) {
		return nil
	}
	share := t.Share(s, i)
	var speeds []float64
	for c, frac := range t.Alloc[i] {
		if frac > share+1e-9 {
			speeds = append(speeds, s.Classes[c].Speed)
		}
	}
	return speeds
}

// Policy computes target allocations from a snapshot. Allocate must be
// deterministic and side-effect free.
type Policy interface {
	// Name identifies the policy in configs, flags, and reports.
	Name() string
	// Allocate returns the targets for the snapshot. Alloc and Weight
	// are sized to the snapshot's tenants (both may be shorter only if
	// the snapshot is empty).
	Allocate(s Snapshot) Targets
}

// TierBounds returns the per-tier admission depth bounds the policy
// implies: nil for Static, which keeps the mechanism's own
// MaxDepth-derived bounds (premium 1.25×, best-effort half) for exact
// legacy behavior, and otherwise bounds proportional to each tier's
// aggregate target share — a tier holding twice the allocation gets
// twice the queue headroom. Nil means "leave the mechanism's derived
// bounds in place"; maxDepth <= 0 (admission disabled) always returns
// nil.
func TierBounds(p Policy, s Snapshot, t Targets, maxDepth int) map[workload.Tier]int {
	if _, ok := p.(Static); ok {
		return nil
	}
	return shareTierBounds(s, t, maxDepth)
}

// shareTierBounds derives tier depth bounds from aggregate target
// shares: bound(tier) = maxDepth × tierShare × tiersPresent, clamped
// to [1, 4×maxDepth]. With equal per-tier shares every tier gets
// maxDepth; a tier the policy favors queues deeper before shedding.
func shareTierBounds(s Snapshot, t Targets, maxDepth int) map[workload.Tier]int {
	if maxDepth <= 0 || len(s.Tenants) == 0 {
		return nil
	}
	tierShare := map[workload.Tier]float64{}
	var total float64
	for i, ten := range s.Tenants {
		sh := t.Share(s, i)
		tierShare[ten.Tier.Normalize()] += sh
		total += sh
	}
	if total <= 0 {
		return nil
	}
	bounds := make(map[workload.Tier]int, len(tierShare))
	n := float64(len(tierShare))
	for tier, sh := range tierShare {
		b := int(math.Round(float64(maxDepth) * (sh / total) * n))
		if b < 1 {
			b = 1
		}
		if max := 4 * maxDepth; b > max {
			b = max
		}
		bounds[tier] = b
	}
	return bounds
}

// Names lists the selectable allocation policies in presentation
// order.
func Names() []string { return []string{"static", "maxmin", "hier", "cost"} }

// Parse resolves a policy by name, as typed on a command line:
// "static", "maxmin" ("max-min"), "hier" ("hierarchical", with
// optional org weights as "hier:acme=3,bitco=1"), or "cost". The empty
// string is static — the legacy flat-weight behavior. Unknown names
// are an error listing the valid policies.
func Parse(name string) (Policy, error) {
	base, spec := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, spec = name[:i], name[i+1:]
	}
	if spec != "" && base != "hier" && base != "hierarchical" {
		return nil, fmt.Errorf("policy: %q takes no %q parameter", base, spec)
	}
	switch base {
	case "", "static":
		return Static{}, nil
	case "maxmin", "max-min":
		return MaxMin{}, nil
	case "hier", "hierarchical":
		h := Hierarchical{}
		if spec != "" {
			h.OrgWeights = map[string]float64{}
			for _, kv := range strings.Split(spec, ",") {
				eq := strings.IndexByte(kv, '=')
				if eq <= 0 {
					return nil, fmt.Errorf("policy: bad org weight %q (want org=weight)", kv)
				}
				w, err := strconv.ParseFloat(kv[eq+1:], 64)
				if err != nil || w <= 0 || math.IsInf(w, 0) {
					return nil, fmt.Errorf("policy: bad org weight %q (want a positive finite number)", kv)
				}
				h.OrgWeights[kv[:eq]] = w
			}
		}
		return h, nil
	case "cost":
		return CostMin{}, nil
	default:
		return nil, fmt.Errorf("policy: unknown allocation policy %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// proportionalAlloc splits every class among the tenants in proportion
// to the given per-tenant shares (which need not be normalized): the
// no-placement-opinion allocation matrix.
func proportionalAlloc(s Snapshot, shares []float64) [][]float64 {
	var total float64
	for _, sh := range shares {
		total += sh
	}
	alloc := make([][]float64, len(shares))
	for i, sh := range shares {
		row := make([]float64, len(s.Classes))
		if total > 0 {
			frac := sh / total
			for c := range row {
				row[c] = frac
			}
		}
		alloc[i] = row
	}
	return alloc
}

// normalizeWeights scales shares into DFQ weights with the minimum
// positive weight pinned to 1: the weighted lead bound's window term is
// the engagement window over the lightest charged weight, so min-1
// normalization keeps the bound equal to the unweighted scheduler's no
// matter how skewed the shares are. Non-positive shares (idle tenants
// the policy allocated nothing) get weight 1 — they charge like an
// unweighted tenant for whatever little they run.
func normalizeWeights(shares []float64) []float64 {
	min := math.Inf(1)
	for _, sh := range shares {
		if sh > 0 && sh < min {
			min = sh
		}
	}
	w := make([]float64, len(shares))
	for i, sh := range shares {
		if sh <= 0 || math.IsInf(min, 1) {
			w[i] = 1
			continue
		}
		w[i] = sh / min
	}
	return w
}

// Static reproduces the flat-weight behavior that predates the policy
// layer: every tenant keeps its spec weight, every class splits
// weight-proportionally (no placement preference), and tier bounds stay
// the mechanism's own derivation. Running static through the allocator
// must be byte-identical to running no allocator at all — the
// differential tests pin that.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Allocate implements Policy: spec weights verbatim, proportional
// allocation rows.
func (Static) Allocate(s Snapshot) Targets {
	shares := make([]float64, len(s.Tenants))
	weights := make([]float64, len(s.Tenants))
	for i, t := range s.Tenants {
		shares[i] = t.Weight
		weights[i] = t.Weight
	}
	return Targets{Alloc: proportionalAlloc(s, shares), Weight: weights}
}

// MaxMin is heterogeneity-aware weighted max-min fairness: water-fill
// the fleet's normalized-work capacity over tenant demands, each tenant
// capped at its own demand, surplus recirculating to the still-hungry
// in weight proportion. The classic outcome: no tenant can gain
// without a poorer (per weight) tenant losing. Allocation rows pack
// the largest allocations onto the fastest classes, so placement
// steers heavy tenants where their share costs the fewest devices.
type MaxMin struct{}

// Name implements Policy.
func (MaxMin) Name() string { return "max-min" }

// Allocate implements Policy by weighted water-filling.
func (MaxMin) Allocate(s Snapshot) Targets {
	n := len(s.Tenants)
	alloc := make([]float64, n)
	capacity := s.Capacity()
	// Water-fill: raise the per-weight level L, satisfying tenants in
	// ascending demand-per-weight order, until capacity runs out or
	// every demand is met.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := s.Tenants[order[a]], s.Tenants[order[b]]
		return ta.Demand/ta.Weight < tb.Demand/tb.Weight
	})
	var sumW float64
	for _, t := range s.Tenants {
		sumW += t.Weight
	}
	level, remaining := 0.0, capacity
	for _, i := range order {
		t := s.Tenants[i]
		fill := t.Demand / t.Weight
		need := (fill - level) * sumW
		if need > remaining {
			level += remaining / sumW
			remaining = 0
			break
		}
		remaining -= need
		level = fill
		alloc[i] = t.Demand
		sumW -= t.Weight
	}
	if sumW > 0 {
		for _, i := range order {
			if alloc[i] == 0 && s.Tenants[i].Demand/s.Tenants[i].Weight > level {
				alloc[i] = s.Tenants[i].Weight * level
			}
		}
	}
	return Targets{Alloc: packFastestFirst(s, alloc), Weight: normalizeWeights(alloc)}
}

// packFastestFirst turns per-tenant normalized-work allocations into an
// allocation matrix by bin-packing: tenants in descending allocation
// order (ties to the lower index) fill classes in descending speed
// order (ties to the lower index), straddling class boundaries as
// needed. Heavy tenants therefore land on the fastest classes — the
// class-preference hints placement consumes.
func packFastestFirst(s Snapshot, alloc []float64) [][]float64 {
	rows := make([][]float64, len(alloc))
	for i := range rows {
		rows[i] = make([]float64, len(s.Classes))
	}
	classes := make([]int, len(s.Classes))
	for i := range classes {
		classes[i] = i
	}
	sort.SliceStable(classes, func(a, b int) bool {
		return s.Classes[classes[a]].Speed > s.Classes[classes[b]].Speed
	})
	order := make([]int, len(alloc))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return alloc[order[a]] > alloc[order[b]] })
	ci := 0
	var used float64 // capacity consumed of classes[ci]
	for _, i := range order {
		need := alloc[i]
		for need > 1e-12 && ci < len(classes) {
			c := classes[ci]
			room := s.Classes[c].Capacity() - used
			take := need
			if take > room {
				take = room
			}
			if cap := s.Classes[c].Capacity(); cap > 0 {
				rows[i][c] += take / cap
			}
			need -= take
			used += take
			if used >= s.Classes[c].Capacity()-1e-12 {
				ci++
				used = 0
			}
		}
	}
	return rows
}

// Hierarchical is proportional shares down an org → tenant tree:
// org weights split the fleet first (every org absent from OrgWeights
// weighs 1, so an org's share is independent of how many tenants it
// enrolls — the org-level isolation flat weights cannot express), then
// each org's share splits among its tenants by their spec weights.
// Weights multiply down the tree and normalize per sibling group. A
// tenant with no org stands alone at the top level carrying its own
// weight, so an all-flat population reproduces flat proportional
// shares.
type Hierarchical struct {
	// OrgWeights overrides top-level org weights; absent orgs weigh 1.
	OrgWeights map[string]float64
}

// Name implements Policy.
func (Hierarchical) Name() string { return "hierarchical" }

// Allocate implements Policy.
func (h Hierarchical) Allocate(s Snapshot) Targets {
	// Top-level sibling groups in first-appearance order: named orgs
	// once each, plus one singleton group per org-less tenant.
	type group struct {
		weight  float64
		members []int
		sumW    float64
	}
	var groups []*group
	byOrg := map[string]*group{}
	for i, t := range s.Tenants {
		if t.Org == "" {
			groups = append(groups, &group{weight: t.Weight, members: []int{i}, sumW: t.Weight})
			continue
		}
		g := byOrg[t.Org]
		if g == nil {
			g = &group{weight: 1}
			if w, ok := h.OrgWeights[t.Org]; ok {
				g.weight = w
			}
			byOrg[t.Org] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
		g.sumW += t.Weight
	}
	var topW float64
	for _, g := range groups {
		topW += g.weight
	}
	shares := make([]float64, len(s.Tenants))
	for _, g := range groups {
		if topW <= 0 || g.sumW <= 0 {
			continue
		}
		orgShare := g.weight / topW
		for _, i := range g.members {
			shares[i] = orgShare * (s.Tenants[i].Weight / g.sumW)
		}
	}
	return Targets{Alloc: proportionalAlloc(s, shares), Weight: normalizeWeights(shares)}
}

// DefaultPrices is the per-class price per device-second the cost
// policy minimizes against, loosely tracking real fleets: the consumer
// card is cheapest per normalized work, the reference card the
// baseline, and the next-generation part fastest but at a premium.
func DefaultPrices() map[string]float64 {
	return map[string]float64{"k20": 1.0, "consumer": 0.45, "nextgen": 2.4}
}

// CostMin is the cost/makespan-style objective: serve the aggregate
// offered demand at minimum dollar cost by filling the cheapest
// class (price per normalized work) first and spilling upward only
// when demand exceeds its capacity. Tenants split each filled class in
// demand proportion; DFQ weights follow demand so relative service
// tracks offered load. Under slack this concentrates work on cheap
// devices — the opposite placement of max-min's fastest-first — which
// is exactly the policy disagreement the policy experiment shows.
type CostMin struct{}

// Name implements Policy.
func (CostMin) Name() string { return "cost" }

// price returns the class's price per device-second from
// DefaultPrices; a class absent from it costs its speed (price per
// work 1).
func (CostMin) price(c Class) float64 {
	if pr, ok := DefaultPrices()[c.Name]; ok {
		return pr
	}
	return c.Speed
}

// Allocate implements Policy.
func (p CostMin) Allocate(s Snapshot) Targets {
	var demand float64
	for _, t := range s.Tenants {
		demand += t.Demand
	}
	if cap := s.Capacity(); demand > cap {
		demand = cap
	}
	// Fill classes in ascending price-per-normalized-work order.
	classes := make([]int, len(s.Classes))
	for i := range classes {
		classes[i] = i
	}
	sort.SliceStable(classes, func(a, b int) bool {
		ca, cb := s.Classes[classes[a]], s.Classes[classes[b]]
		return p.price(ca)/ca.Speed < p.price(cb)/cb.Speed
	})
	classFrac := make([]float64, len(s.Classes))
	left := demand
	for _, c := range classes {
		if left <= 0 {
			break
		}
		cap := s.Classes[c].Capacity()
		take := left
		if take > cap {
			take = cap
		}
		if cap > 0 {
			classFrac[c] = take / cap
		}
		left -= take
	}
	// Tenants split every filled class in demand proportion.
	var sumD float64
	for _, t := range s.Tenants {
		sumD += t.Demand
	}
	rows := make([][]float64, len(s.Tenants))
	shares := make([]float64, len(s.Tenants))
	for i, t := range s.Tenants {
		rows[i] = make([]float64, len(s.Classes))
		if sumD <= 0 {
			continue
		}
		frac := t.Demand / sumD
		shares[i] = t.Demand
		for c := range rows[i] {
			rows[i][c] = classFrac[c] * frac
		}
	}
	return Targets{Alloc: rows, Weight: normalizeWeights(shares)}
}
