// Package fleet scales the single-accelerator NEON stack to a placed,
// fair-shared multi-device fleet — the regime of heterogeneity-aware
// cluster schedulers and of MQFQ-Sticky's locality-sticky fair queueing
// for serverless GPU functions, and the biggest step from the paper's
// one-GPU prototype toward a production deployment.
//
// A Fleet owns N device instances. Each instance is a full per-device
// stack — its own gpu.Device (48-channel pool, engine arbitration,
// reference counters), its own neon.Kernel, and its own Disengaged Fair
// Queueing scheduler — exactly the paper's system, replicated. Two
// layers tie the instances together:
//
//   - a placement subsystem (Policy): before every tenant round, the
//     fleet asks the policy which device serves it. Round-robin,
//     least-loaded, and locality-sticky policies are class-blind; the
//     sticky policy returns tenants to their previous device while its
//     queue depth stays under a threshold, trading balance for warm
//     working-set state (MQFQ-Sticky-style). On heterogeneous fleets
//     (Config.Classes) two class-aware policies join them: fastest-fit
//     places by effective throughput (class speed over queue depth,
//     Gavel-style), and class-aware sticky migrates warm state only
//     when the class speedup outweighs the reconstruction cost.
//   - fleet-wide virtual-time reconciliation (Board): each per-device
//     DFQ instance folds the usage it charges at every engagement
//     episode (core.Ledger.Episode) into a shared board keyed by
//     tenant name, and takes its denial decisions against fleet-wide
//     leads. A tenant consuming on several devices at once is
//     throttled everywhere, so fairness holds across the fleet, not
//     just within one device. Charges are in normalized core.Work
//     (device time x class speed), so the board compares like with
//     like across device generations.
package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// Node is one device instance of the fleet: a private GPU, its kernel,
// and the per-device scheduler the kernel runs.
type Node struct {
	Index  int
	Class  cost.Class
	Device *gpu.Device
	Kernel *neon.Kernel
	Sched  neon.Scheduler

	// inflight counts placed-but-unfinished work units on this node —
	// tenant rounds for closed-loop tenants, individual requests for the
	// open-loop serving layer. It is the queue depth placement policies
	// compare and admission controllers bound. All changes go through
	// Fleet.addLoad so the fleet-wide total stays current.
	inflight int

	// busyAtReset snapshots the exec engine for utilization reporting.
	busyAtReset sim.Duration
}

// Load returns the node's congestion signal: work units in flight
// (placed but not completed) — the node's queue depth.
func (n *Node) Load() int { return n.inflight }

// Speed returns the node's class speed factor: the rate it retires
// nominal work relative to the reference class. Placement policies use
// it as the effective-throughput numerator.
func (n *Node) Speed() float64 { return n.Class.Speed }

// DFQ returns the node's scheduler as Disengaged Fair Queueing, or nil
// when the fleet was built with a different policy.
func (n *Node) DFQ() *core.DisengagedFairQueueing {
	d, _ := n.Sched.(*core.DisengagedFairQueueing)
	return d
}

// Config assembles a fleet.
type Config struct {
	// Devices is the number of device instances (N >= 1). Under DFQ
	// every device reports to one fleet board, which tracks at most 64.
	Devices int
	// Classes names each device's generation (cost.ClassNames); device i
	// takes Classes[i%len(Classes)], so a short list tiles over a large
	// fleet. Empty means every device is the reference class — the
	// homogeneous fleets of the earlier experiments.
	Classes []string
	// Policy places tenant rounds; nil defaults to round-robin.
	Policy Policy
	// GPU configures every device instance; gpu.New fills its unset
	// fields. The per-instance Name and Class are set by the fleet.
	GPU gpu.Config
	// Sched names the per-device scheduling policy: "dfq" (default),
	// "timeslice"/"ts", or "dts". Only DFQ participates in fleet-wide
	// virtual-time reconciliation; the timeslice policies are per-device
	// fair only, which is exactly what the serve experiment compares.
	Sched string
	// DFQ configures every per-device scheduler; zero fields take the
	// paper's defaults. The Fleet reconciliation hook is installed by
	// the fleet and must be left nil. Ignored unless Sched is "dfq".
	DFQ core.DFQConfig
	// RunLimit is each kernel's over-long request kill threshold.
	RunLimit sim.Duration
	// Seed feeds each tenant's deterministic jitter stream, forked by
	// launch index so populations are order-independent.
	Seed int64
	// AllocPolicy, when set, installs the round-based allocator: every
	// DefaultAllocEvery the policy recomputes target allocations over the
	// tenant×class matrix and the fleet translates them into effective
	// DFQ weights and placement hints (see allocator.go). Nil keeps the
	// pre-policy behavior: spec weights, unhinted placement.
	AllocPolicy policy.Policy
}

// Fleet is a set of device instances behind one placement interface.
type Fleet struct {
	eng     *sim.Engine
	nodes   []*Node
	policy  Policy
	board   *Board
	depth   int // fleet-wide in-flight total, kept incrementally
	tenants []*Tenant
	seed    int64

	// Tenants, their per-node slots and their virtual clients come from
	// slab chunks, so a tenant costs slots, not objects.
	tenantSlab  sim.Slab[Tenant]
	clientSlots sim.Slab[*userlib.Client]
	taskSlots   sim.Slab[*neon.Task]
	clients     userlib.Clients

	allocPol  policy.Policy
	onTargets func(policy.Snapshot, policy.Targets)

	// Placements counts placement decisions; Migrations counts the
	// subset that moved a tenant off its previous device.
	Placements int64
	Migrations int64
	// AllocRounds counts allocator rounds applied (0 without a policy).
	AllocRounds int64
}

// New builds a fleet of cfg.Devices per-device stacks on the engine.
func New(eng *sim.Engine, cfg Config) (*Fleet, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 device, got %d", cfg.Devices)
	}
	if cfg.DFQ.Fleet != nil {
		return nil, fmt.Errorf("fleet: DFQ.Fleet is installed by the fleet; leave it nil")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = NewRoundRobin()
	}
	schedName := cfg.Sched
	if schedName == "" {
		schedName = "dfq"
	}
	dfq := schedName == "dfq" || schedName == "disengaged-fair-queueing"
	if dfq && cfg.Devices > boardMaxDevices {
		return nil, fmt.Errorf("fleet: a DFQ fleet reconciles at most %d devices on its board, got %d",
			boardMaxDevices, cfg.Devices)
	}
	classes := make([]cost.Class, 0, len(cfg.Classes))
	for _, name := range cfg.Classes {
		c, err := cost.ClassByName(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		classes = append(classes, c)
	}
	f := &Fleet{
		eng:    eng,
		policy: policy,
		board:  NewBoard(),
		seed:   cfg.Seed,
	}
	for i := 0; i < cfg.Devices; i++ {
		gcfg := cfg.GPU
		gcfg.Name = fmt.Sprintf("dev%d", i)
		class := cost.ReferenceClass()
		if len(classes) > 0 {
			class = classes[i%len(classes)]
		}
		gcfg.Class = class
		dev := gpu.New(eng, gcfg)
		var sched neon.Scheduler
		if dfq {
			dcfg := cfg.DFQ
			dcfg.Fleet = f.board
			sched = core.NewDisengagedFairQueueing(dcfg)
		} else {
			s, err := core.New(schedName)
			if err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
			sched = s
		}
		k := neon.NewKernel(dev, sched)
		k.RequestRunLimit = cfg.RunLimit
		f.nodes = append(f.nodes, &Node{Index: i, Class: class, Device: dev, Kernel: k, Sched: sched})
	}
	if cfg.AllocPolicy != nil {
		f.allocPol = cfg.AllocPolicy
		(&allocator{f: f, pol: cfg.AllocPolicy}).start()
	}
	return f, nil
}

// addLoad changes a node's in-flight count, keeping the fleet-wide
// total current.
func (f *Fleet) addLoad(n *Node, delta int) {
	n.inflight += delta
	f.depth += delta
}

// Engine returns the simulation engine the fleet runs on.
func (f *Fleet) Engine() *sim.Engine { return f.eng }

// Nodes returns the device instances in index order.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// Board returns the fleet-wide virtual-time board.
func (f *Fleet) Board() *Board { return f.board }

// Tenants returns launched tenants in launch order.
func (f *Fleet) Tenants() []*Tenant { return f.tenants }

// PlaceRequest asks the placement policy for the device to serve the
// tenant's next work unit — a closed-loop round, or one open-loop
// request of its stream — and accounts it in flight there. The tenant's
// warm-state device advances here, at placement time: the serving
// layer's dispatchers drain queues asynchronously, so placement order
// is the only coherent notion of "previous device". It reports whether
// the unit moved off that previous device.
func (f *Fleet) PlaceRequest(t *Tenant) (n *Node, migrated bool) {
	n = f.policy.Pick(f, t)
	f.addLoad(n, 1)
	f.Placements++
	if t.last != nil && t.last != n {
		f.Migrations++
		migrated = true
	}
	t.last = n
	return n, migrated
}

// RequestDone retires a placed work unit from the node's in-flight
// count (a round once fenced; a request on completion, abort, or
// shed-after-placement). A RequestDone without a matching placement would
// silently corrupt the queue-depth signal that admission control and
// every placement policy read, so it panics — naming the node —
// instead.
func (f *Fleet) RequestDone(n *Node) {
	if n.inflight <= 0 {
		panic(fmt.Sprintf("fleet: request retired on %s with none in flight", n.Device.Name()))
	}
	f.addLoad(n, -1)
}

// QueueDepth returns the fleet-wide queue depth: work units placed and
// not yet finished, summed over nodes. This is the congestion signal
// front-door admission control bounds; it is maintained incrementally,
// so the admission check that runs per arriving request is O(1) rather
// than a node scan.
func (f *Fleet) QueueDepth() int { return f.depth }

// ResetStats clears tenant and fleet counters and re-baselines device
// busy time (for warmup exclusion, like workload.App.ResetStats).
func (f *Fleet) ResetStats() {
	f.Placements = 0
	f.Migrations = 0
	for _, n := range f.nodes {
		n.busyAtReset = n.Device.TotalBusy()
	}
	for _, t := range f.tenants {
		t.ResetStats()
	}
}

// BusySince returns the node's exec-engine busy time accumulated since
// the last ResetStats.
func (n *Node) BusySince() sim.Duration { return n.Device.TotalBusy() - n.busyAtReset }

// Utilization returns the node's exec-engine busy fraction of the
// measurement window since the last ResetStats — the per-node signal
// the serve and hetero experiments report. The result is clamped to
// [0, 1]: a caller passing a window shorter than the busy time
// accumulated since ResetStats gets a saturated device, not an
// impossible >100% reading.
func (n *Node) Utilization(window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	u := float64(n.BusySince()) / float64(window)
	if u > 1 {
		return 1
	}
	if u < 0 {
		return 0
	}
	return u
}

// WorkSince returns the normalized work the node retired since the last
// ResetStats: busy time scaled by its class speed.
func (n *Node) WorkSince() core.Work { return core.WorkFor(n.BusySince(), n.Speed()) }
