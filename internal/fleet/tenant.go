package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// Tenant is one fleet resource principal: it runs its spec's round loop
// forever, asking the placement policy for a device before every round.
// The first touch of a device pays the usual context/channel setup
// syscalls; thereafter the tenant's warm working set lives on whichever
// device ran its previous round, and a round placed anywhere else first
// pays WorkingSet of device time to reconstruct it (data migration plus
// re-initialization kernels occupying the destination engine) — the
// locality cost sticky placement exists to avoid.
//
// The round loop is the embedded workload.Loop; the tenant supplies
// its rounds' content: the placement, the lazily opened virtual client
// (ClientOn), the jittered think time and the cold-rebuild request.
type Tenant struct {
	workload.Loop

	Spec workload.TenantSpec

	fleet *Fleet
	last  *Node
	// clients and tasks are indexed by Node.Index: the tenant's client
	// and kernel task on each node it has touched, nil elsewhere.
	clients []*userlib.Client
	tasks   []*neon.Task
	rng     sim.RNG
	busy0   sim.Duration
	work0   core.Work

	// allocWeight is the fair-share weight the round-based allocator
	// last applied (0 = no allocator, use the spec weight), and
	// hintClasses the class speeds the active policy wants this
	// tenant's work steered toward (empty = no preference).
	allocWeight float64
	hintClasses []float64

	// The round in progress: its node, whether it was placed (a Begin
	// repeated on the loop's lane must not place again), and whether the
	// placement moved it off the previous device.
	node     *Node
	placed   bool
	migrated bool

	// Migrations counts rounds that moved off the previous device;
	// ColdTime is the device time those moves spent rebuilding state.
	Migrations int64
	ColdTime   sim.Duration

	setupErr error
}

// NewTenant registers a tenant with the fleet without starting the
// closed-loop round loop. The open-loop serving layer (internal/traffic)
// uses this: it drives the tenant's requests from an arrival process
// instead, but still wants fleet placement, per-node depth accounting,
// and the tenant's lazily opened per-device clients.
//
// Invalid contract terms (negative or non-finite weight, unknown tier)
// panic, mirroring workload.FleetPopulation's convention: tenant specs
// are experiment-grid configuration, not user input, and a bad weight
// silently clamped to 1 by the ledgers would corrupt every fairness
// table downstream. The serving layer validates with a proper error
// before reaching here.
func (f *Fleet) NewTenant(spec workload.TenantSpec) *Tenant {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("fleet: %v", err))
	}
	t := f.tenantSlab.New()
	t.Spec, t.fleet = spec, f
	t.clients = f.clientSlots.Take(len(f.nodes))
	t.tasks = f.taskSlots.Take(len(f.nodes))
	t.rng = sim.MakeRNG(sim.StreamSeed(f.seed, "tenant", len(f.tenants)))
	f.tenants = append(f.tenants, t)
	return t
}

// Launch starts a tenant's round loop on the fleet. The loop's lane is
// an engine continuation, not a task's, because it outlives any one
// node's task; its first step takes the place a spawned process's
// activation would.
func (f *Fleet) Launch(spec workload.TenantSpec) *Tenant {
	t := f.NewTenant(spec)
	lane := f.eng.NewCont()
	lane.Yield(func() { t.Start(t, f.eng, lane, nil, spec.Spec) })
	return t
}

// SetupError returns any context/channel allocation failure.
func (t *Tenant) SetupError() error { return t.setupErr }

// ServiceTime returns the raw device time the tenant has received
// across the fleet since the last ResetStats — including any
// working-set reconstruction, which is capacity the tenant consumed.
// On a heterogeneous fleet raw device time overstates service received
// on slow devices; compare tenants with NormalizedWork instead.
func (t *Tenant) ServiceTime() sim.Duration {
	var b sim.Duration
	for _, task := range t.tasks {
		if task != nil {
			b += task.BusyTime()
		}
	}
	return b - t.busy0
}

// NormalizedWork returns the class-normalized service the tenant has
// received across the fleet since the last ResetStats: per-device busy
// time scaled by each device's class speed, summed. This is the unit
// the fleet board accounts fairness in, so it is the unit per-tenant
// shares must be compared in on a mixed fleet. It sums over nodes in
// index order.
func (t *Tenant) NormalizedWork() core.Work {
	var w core.Work
	for i, task := range t.tasks {
		if task != nil {
			w += core.WorkFor(task.BusyTime(), t.fleet.nodes[i].Speed())
		}
	}
	return w - t.work0
}

// WeightedWork returns the tenant's normalized work divided by its
// effective fair-share weight — the unit weighted fair queueing
// equalizes across tenants. Under contention every backlogged tenant's
// WeightedWork should advance at the same rate no matter how its weight
// (and hence its raw share) differs; the tiers experiment's fairness
// columns are computed over it.
func (t *Tenant) WeightedWork() core.Work {
	return core.PerWeight(t.NormalizedWork(), t.EffectiveWeight())
}

// EffectiveWeight returns the fair-share weight the mechanism charges
// the tenant at: the weight the round-based allocator last applied when
// an allocation policy is active, otherwise the spec's own weight.
func (t *Tenant) EffectiveWeight() float64 {
	if t.allocWeight > 0 {
		return t.allocWeight
	}
	return t.Spec.ShareWeight()
}

// setAllocWeight installs an allocator-computed weight: every live
// kernel task re-weights immediately (the DFQ ledgers read Task.Weight
// at each charging step, so no ledger state needs rewriting — see the
// dynamic-weight contract in core/dfq.go), and tasks opened later
// inherit it at creation.
func (t *Tenant) setAllocWeight(w float64) {
	t.allocWeight = w
	for _, task := range t.tasks {
		if task != nil {
			task.Weight = t.EffectiveWeight()
		}
	}
}

// ResetStats clears round statistics and re-baselines service time.
func (t *Tenant) ResetStats() {
	t.busy0 += t.ServiceTime()
	t.work0 += t.NormalizedWork()
	t.Rounds = 0
	t.RoundTime = 0
	t.Migrations = 0
	t.ColdTime = 0
}

// Task returns the tenant's kernel task on the node, nil before the
// first client open there.
func (t *Tenant) Task(n *Node) *neon.Task { return t.tasks[n.Index] }

// ClientOn lazily opens the tenant's context and channels on the node
// and hands the client to then, as a step of c: inline when the client
// is already open, after the setup syscalls on first touch (the open
// attaches eagerly while the node has a free hardware slot). The
// serving layer's dispatchers open through it.
func (t *Tenant) ClientOn(c *sim.Cont, n *Node, then func(*userlib.Client, error)) {
	if cl, err, ok := t.openedOn(n); ok {
		then(cl, err)
		return
	}
	task := n.Kernel.NewTask(t.Spec.Name)
	task.Weight = t.EffectiveWeight()
	kinds := t.Spec.Channels
	if len(kinds) == 0 {
		kinds = computeOnly
	}
	// Logical (virtual-context) handle: the node's kernel multiplexes
	// the device's fixed hardware-context pool underneath, so tenant
	// populations are no longer capped by gpu.Config.MaxContexts.
	t.fleet.clients.OpenVirtualOn(c, n.Kernel, task, t.Spec.Name, kinds, func(cl *userlib.Client, err error) {
		if err != nil {
			then(nil, err)
			return
		}
		t.tasks[n.Index] = task
		t.clients[n.Index] = cl
		then(cl, nil)
	})
}

// computeOnly is the channel list of a spec that names none. It is
// shared by every such tenant's clients and never written.
var computeOnly = []gpu.Kind{gpu.Compute}

// openedOn returns the tenant's client on the node if one was opened,
// and reports whether one was.
func (t *Tenant) openedOn(n *Node) (*userlib.Client, error, bool) {
	c := t.clients[n.Index]
	if c == nil {
		return nil, nil, false
	}
	if !c.Task.Alive {
		// Killed on this node: the logical handle is dead and round
		// loops must stop rather than spin on nil submissions.
		return nil, gpu.ErrContextDead, true
	}
	return c, nil, true
}

// Begin places the round and hands the loop the round's client: at
// once when the client on the node is open, else on the loop's lane,
// through the setup syscalls of a first touch or, for a dead handle,
// straight to the error. A dead handle still hops to the lane before
// the round is retired, where a slow-lane process would have retired
// it.
func (t *Tenant) Begin(l *workload.Loop, lane bool) {
	if !t.placed {
		t.node, t.migrated = t.fleet.PlaceRequest(t)
		t.placed = true
	}
	if c, err, ok := t.openedOn(t.node); ok && err == nil {
		t.run(c, lane)
		return
	}
	if !lane {
		l.Hop()
		return
	}
	t.ClientOn(l.Lane(), t.node, t.opened)
}

// opened continues a round whose client needed the lane.
func (t *Tenant) opened(c *userlib.Client, err error) {
	if err != nil {
		t.setupErr = err
		t.fleet.RequestDone(t.node)
		t.Stop()
		return
	}
	t.run(c, true)
}

// run runs the placed round on c. A round placed off the previous
// device first rebuilds the warm state: the reconstruction occupies the
// destination engine, so migration costs the fleet real capacity.
func (t *Tenant) run(c *userlib.Client, lane bool) {
	t.placed = false
	var cold workload.Req
	if t.migrated && t.Spec.WorkingSet > 0 {
		t.Migrations++
		t.ColdTime += t.Spec.WorkingSet
		cold = workload.Req{Size: t.Spec.WorkingSet, Kind: c.Kinds()[0]}
	}
	t.Run(c, cold, lane)
}

// Think returns the round's jittered CPU time.
func (t *Tenant) Think() (sim.Duration, bool) {
	return t.rng.Jitter(t.Spec.CPU, t.Spec.Jitter), true
}

// Fenced retires the round from its node's queue depth once its
// requests have completed.
func (t *Tenant) Fenced() { t.fleet.RequestDone(t.node) }

// Submitted and Served do nothing: tenants keep no request statistics.
func (t *Tenant) Submitted(sim.Time)  {}
func (t *Tenant) Served(*gpu.Request) {}
