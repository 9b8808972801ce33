package fleet

import (
	"fmt"
	"slices"
	"strings"
)

// Policy decides which device serves a tenant's next round. Pick runs
// in engine context and must be deterministic: same fleet state, same
// answer.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns the node for the tenant's next round.
	Pick(f *Fleet, t *Tenant) *Node
}

// DefaultStickyDepth is the locality-sticky queue-depth threshold, in
// rounds: a tenant returns to its previous device while fewer rounds
// than this are in flight there.
const DefaultStickyDepth = 3

// DefaultClassSpeedup is the class-aware sticky policy's migration
// threshold: a tenant abandons its warm device only for one whose class
// is at least this much faster — the speed ratio at which halved (or
// better) service time outweighs one working-set reconstruction.
const DefaultClassSpeedup = 2.0

// PolicyNames lists the selectable placement policies in presentation
// order. The first three are class-blind; fastest-fit and class-sticky
// read node class speeds and only differ from least-loaded/sticky on a
// heterogeneous fleet.
func PolicyNames() []string {
	return []string{"rr", "least-loaded", "sticky", "fastest-fit", "class-sticky"}
}

// NewPolicy constructs a placement policy by name, using default
// parameters. Recognized names: "rr" ("round-robin"), "least-loaded"
// ("ll"), "sticky" ("locality-sticky"), "fastest-fit" ("ff"), and
// "class-sticky" ("class-aware-sticky"). An unknown name is an error
// listing the valid policies.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "rr", "round-robin":
		return NewRoundRobin(), nil
	case "least-loaded", "ll":
		return NewLeastLoaded(), nil
	case "sticky", "locality-sticky":
		return NewLocalitySticky(DefaultStickyDepth), nil
	case "fastest-fit", "ff":
		return NewFastestFit(), nil
	case "class-sticky", "class-aware-sticky":
		return NewClassAwareSticky(DefaultStickyDepth, DefaultClassSpeedup), nil
	default:
		return nil, fmt.Errorf("fleet: unknown placement policy %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// RoundRobin cycles placements over the devices in index order,
// ignoring both load and locality. Every round migrates (for a fleet
// larger than one device), so warm-state tenants pay their working-set
// reconstruction on nearly every round — the baseline the locality
// policies improve on.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the round-robin placement policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(f *Fleet, t *Tenant) *Node {
	n := f.nodes[p.next%len(f.nodes)]
	p.next++
	return n
}

// LeastLoaded places each round on the device with the fewest rounds in
// flight. Ties break to the lowest device index — a deterministic rule,
// so identical fleet states always place identically.
type LeastLoaded struct{}

// NewLeastLoaded returns the least-loaded placement policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (*LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (*LeastLoaded) Pick(f *Fleet, t *Tenant) *Node {
	best := f.nodes[0]
	for _, n := range f.nodes[1:] {
		if n.inflight < best.inflight {
			best = n
		}
	}
	return best
}

// LocalitySticky returns a tenant to the device that holds its warm
// working set while that device's queue depth (rounds in flight) is
// below Depth; past the threshold — or for a tenant's first round — it
// spills to the least-loaded device. This is MQFQ-Sticky's placement
// rule: locality is worth queueing for, up to a point.
type LocalitySticky struct {
	// Depth is the stick-while-below queue-depth threshold, in rounds.
	Depth int

	spill LeastLoaded
}

// NewLocalitySticky returns the sticky policy with the given threshold;
// depth <= 0 takes DefaultStickyDepth.
func NewLocalitySticky(depth int) *LocalitySticky {
	if depth <= 0 {
		depth = DefaultStickyDepth
	}
	return &LocalitySticky{Depth: depth}
}

// Name implements Policy.
func (*LocalitySticky) Name() string { return "locality-sticky" }

// Pick implements Policy.
func (p *LocalitySticky) Pick(f *Fleet, t *Tenant) *Node {
	if t.last != nil && t.last.Load() < p.Depth {
		return t.last
	}
	return p.spill.Pick(f, t)
}

// FastestFit is the heterogeneity-aware greedy: it places each work
// unit on the node with the highest *effective throughput* — class
// speed divided by the work already queued ahead of it — the
// Gavel-style normalized-throughput objective. A fast node is worth
// queueing behind, but only up to the point where a slower, idler node
// would serve sooner. Ties break to the lowest device index, so
// identical fleet states place identically. On a homogeneous fleet it
// degenerates to least-loaded.
type FastestFit struct{}

// NewFastestFit returns the effective-throughput-greedy policy.
func NewFastestFit() *FastestFit { return &FastestFit{} }

// Name implements Policy.
func (*FastestFit) Name() string { return "fastest-fit" }

// Pick implements Policy.
//
// When the round-based allocator has hinted the tenant toward target
// classes (the active policy's allocation concentrates it there), the
// pick is biased to those classes: the hint wins even when a faster
// class sits idle — steering against raw speed is exactly what cost
// and fairness policies ask for. The escape hatch is congestion, not
// speed: once the best hinted node queues at least twice as deep as
// the global best (loads compared +1, so an empty fleet never
// escapes), honoring a stale hint costs more than a round of drift
// until the policy recomputes, and the pick falls back to the greedy.
// Without hints (no allocator, or a policy with proportional rows) the
// pick is exactly the unhinted greedy.
func (*FastestFit) Pick(f *Fleet, t *Tenant) *Node {
	best := bestEffective(f.nodes, nil)
	if len(t.hintClasses) == 0 {
		return best
	}
	hinted := bestEffective(f.nodes, func(n *Node) bool {
		return slices.Contains(t.hintClasses, n.Speed())
	})
	if hinted == nil || hinted.Load()+1 >= 2*(best.Load()+1) {
		return best
	}
	return hinted
}

// effectiveThroughput scores a node for FastestFit: the rate at which
// newly placed work would be retired, discounted by the queue already
// in front of it.
func effectiveThroughput(n *Node) float64 {
	return n.Speed() / float64(n.Load()+1)
}

// bestEffective returns the node with the highest effective throughput
// among those accept admits (every node when accept is nil), ties to the
// lowest index, or nil when accept admits none.
func bestEffective(nodes []*Node, accept func(*Node) bool) *Node {
	var best *Node
	var bestScore float64
	for _, n := range nodes {
		if accept != nil && !accept(n) {
			continue
		}
		if s := effectiveThroughput(n); best == nil || s > bestScore {
			best, bestScore = n, s
		}
	}
	return best
}

// ClassAwareSticky extends locality-sticky placement with class
// awareness: a tenant stays on its warm device while that device's
// queue depth is under Depth, unless another node's class is at least
// Speedup times faster *and* has room under the same depth bound — the
// point where the class speedup outweighs the one-time working-set
// reconstruction the move costs. Congested or first-round tenants
// spill through fastest-fit rather than least-loaded, so spilled work
// also lands by effective throughput.
type ClassAwareSticky struct {
	// Depth is the stick-while-below queue-depth threshold.
	Depth int
	// Speedup is the minimum class speed ratio (candidate over warm)
	// that justifies abandoning warm state.
	Speedup float64

	spill FastestFit
}

// NewClassAwareSticky returns the class-aware sticky policy; depth <= 0
// takes DefaultStickyDepth, speedup <= 1 takes DefaultClassSpeedup.
func NewClassAwareSticky(depth int, speedup float64) *ClassAwareSticky {
	if depth <= 0 {
		depth = DefaultStickyDepth
	}
	if speedup <= 1 {
		speedup = DefaultClassSpeedup
	}
	return &ClassAwareSticky{Depth: depth, Speedup: speedup}
}

// Name implements Policy.
func (*ClassAwareSticky) Name() string { return "class-aware-sticky" }

// Pick implements Policy.
func (p *ClassAwareSticky) Pick(f *Fleet, t *Tenant) *Node {
	if t.last != nil && t.last.Load() < p.Depth {
		if up := p.upgrade(f, t.last); up != nil {
			return up
		}
		return t.last
	}
	return p.spill.Pick(f, t)
}

// upgrade returns the best node worth migrating warm state to: at least
// Speedup times the warm node's class speed, queue depth under the
// stick threshold, and the highest effective throughput among such
// candidates (ties to the lowest index). Nil when staying warm wins.
// Speedup above 1 means the warm node's own class never qualifies.
func (p *ClassAwareSticky) upgrade(f *Fleet, warm *Node) *Node {
	bar := p.Speedup * warm.Speed()
	return bestEffective(f.nodes, func(n *Node) bool {
		return n.Speed() >= bar && n.Load() < p.Depth
	})
}
