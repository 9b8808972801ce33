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
type Tenant struct {
	Spec workload.TenantSpec

	fleet   *Fleet
	last    *Node
	clients map[*Node]*userlib.Client
	tasks   map[*Node]*neon.Task
	rng     *sim.RNG
	busy0   sim.Duration
	work0   core.Work

	// allocWeight is the fair-share weight the round-based allocator
	// last applied (0 = no allocator, use the spec weight), and
	// hintClasses the class speeds the active policy wants this
	// tenant's work steered toward (empty = no preference).
	allocWeight float64
	hintClasses []float64

	// Continuation-machine state (DESIGN.md §14), mirroring
	// workload.App: phase/idx drive the round, pending/fencing the
	// frame fence, awaiting the blocking request in flight, slowFault
	// the committed fault handoff, and stopped halts the slow lane.
	eng        *sim.Engine
	reqs       []workload.Req
	coldKind   gpu.Kind
	node       *Node
	client     *userlib.Client
	phase      int
	idx        int
	pending    int
	fencing    bool
	awaiting   *gpu.Request
	placed     bool
	slowFault  bool
	stopped    bool
	retire     []*gpu.Request
	roundStart sim.Time
	slowGate   *sim.Gate
	stepFn     func()
	fireDone   func(*gpu.Request)
	blockDone  func(*gpu.Request)

	// Rounds and RoundTime accumulate since the last ResetStats.
	Rounds    int64
	RoundTime sim.Duration
	// Migrations counts rounds that moved off the previous device;
	// ColdTime is the device time those moves spent rebuilding state.
	Migrations int64
	ColdTime   sim.Duration
	// PerDevice counts rounds completed on each node index.
	PerDevice []int64

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
	t := &Tenant{
		Spec:      spec,
		fleet:     f,
		clients:   make(map[*Node]*userlib.Client),
		tasks:     make(map[*Node]*neon.Task),
		rng:       sim.NewRNG(sim.StreamSeed(f.seed, "tenant", len(f.tenants))),
		PerDevice: make([]int64, len(f.nodes)),
	}
	f.tenants = append(f.tenants, t)
	return t
}

// Launch starts a tenant's round loop on the fleet.
func (f *Fleet) Launch(spec workload.TenantSpec) *Tenant {
	t := f.NewTenant(spec)
	f.eng.Spawn("tenant/"+spec.Name, t.run)
	return t
}

// SetupError returns any context/channel allocation failure.
func (t *Tenant) SetupError() error { return t.setupErr }

// AvgRound returns the mean round time since the last ResetStats.
func (t *Tenant) AvgRound() sim.Duration {
	if t.Rounds == 0 {
		return 0
	}
	return t.RoundTime / sim.Duration(t.Rounds)
}

// ServiceTime returns the raw device time the tenant has received
// across the fleet since the last ResetStats — including any
// working-set reconstruction, which is capacity the tenant consumed.
// On a heterogeneous fleet raw device time overstates service received
// on slow devices; compare tenants with NormalizedWork instead.
func (t *Tenant) ServiceTime() sim.Duration {
	var b sim.Duration
	for _, task := range t.tasks {
		b += task.BusyTime()
	}
	return b - t.busy0
}

// NormalizedWork returns the class-normalized service the tenant has
// received across the fleet since the last ResetStats: per-device busy
// time scaled by each device's class speed, summed. This is the unit
// the fleet board accounts fairness in, so it is the unit per-tenant
// shares must be compared in on a mixed fleet. (The sum is commutative,
// so map iteration order does not affect it.)
func (t *Tenant) NormalizedWork() core.Work {
	var w core.Work
	for n, task := range t.tasks {
		w += core.WorkFor(task.BusyTime(), n.Speed())
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
		task.Weight = t.EffectiveWeight()
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
	t.PerDevice = make([]int64, len(t.fleet.nodes))
}

// Task returns the tenant's kernel task on the node, nil before the
// first client open there.
func (t *Tenant) Task(n *Node) *neon.Task { return t.tasks[n] }

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
		kinds = []gpu.Kind{gpu.Compute}
	}
	// Logical (virtual-context) handle: the node's kernel multiplexes
	// the device's fixed hardware-context pool underneath, so tenant
	// populations are no longer capped by gpu.Config.MaxContexts.
	userlib.OpenVirtualOn(c, n.Kernel, task, t.Spec.Name, kinds, func(cl *userlib.Client, err error) {
		if err != nil {
			then(nil, err)
			return
		}
		t.tasks[n] = task
		t.clients[n] = cl
		then(cl, nil)
	})
}

// clientOn is ClientOn for the round loop: inline when the client is
// open (p may then be nil), else parking the slow-lane process p
// through the setup.
func (t *Tenant) clientOn(p *sim.Proc, n *Node) (*userlib.Client, error) {
	if cl, err, ok := t.openedOn(n); ok {
		return cl, err
	}
	return sim.AwaitResult(p, func(c *sim.Cont, then func(*userlib.Client, error)) {
		t.ClientOn(c, n, then)
	})
}

// openedOn returns the tenant's client on the node if one was opened,
// and reports whether one was.
func (t *Tenant) openedOn(n *Node) (*userlib.Client, error, bool) {
	c, ok := t.clients[n]
	if !ok {
		return nil, nil, false
	}
	if !c.Task.Alive {
		// Killed on this node: the logical handle is dead and round
		// loops must stop rather than spin on nil submissions.
		return nil, gpu.ErrContextDead, true
	}
	return c, nil, true
}

// Tenant round-machine phases, mirroring workload.App's machine: the
// placed round loop runs as an engine-driven state machine on the async
// submission path, and the tenant's process survives as the slow lane
// for anything that must block — first-touch client setup, blocking
// attach of a detached virtual context, and submissions committed to
// the fault path at an engine-instant refusal (see userlib.Engaged).
const (
	tphPlace  = iota // round start: place, open client, cold rebuild
	tphCold          // cold-rebuild request in flight
	tphThink         // jittered CPU think timer in flight
	tphSubmit        // submitting reqs[idx:]
	tphFence         // waiting for pending to reach zero
	tphOff           // off-period timer in flight
)

// run drives the tenant's placed round loop as a continuation machine.
func (t *Tenant) run(p *sim.Proc) {
	t.eng = p.Engine()
	t.reqs = t.Spec.Requests()
	t.coldKind = gpu.Compute
	if kinds := t.Spec.Channels; len(kinds) > 0 {
		t.coldKind = kinds[0]
	}
	t.slowGate = t.eng.NewGate("slow-tenant-" + t.Spec.Name)
	t.stepFn = func() { t.step(nil) }
	t.fireDone = func(r *gpu.Request) { t.oneDone(r) }
	t.blockDone = func(*gpu.Request) { t.eng.After(0, t.stepFn) }

	t.phase = tphPlace
	t.step(p)
	for !t.stopped {
		p.Wait(t.slowGate)
		if t.stopped {
			return
		}
		t.step(p)
	}
}

// oneDone is the completion continuation of fire-and-forget requests.
func (t *Tenant) oneDone(r *gpu.Request) {
	t.pending--
	if !r.Aborted {
		t.retire = append(t.retire, r)
	}
	if t.fencing && t.pending == 0 {
		t.eng.After(0, t.stepFn)
	}
}

// step advances the round machine; p == nil means engine context (must
// not block — blocking work hands off to the slow lane), p != nil means
// the slow-lane process.
func (t *Tenant) step(p *sim.Proc) {
	if r := t.awaiting; r != nil {
		t.awaiting = nil
		r.Release()
		t.advance()
	}
	for {
		switch t.phase {
		case tphPlace:
			// Place exactly once per round: a slow-lane handoff re-enters
			// this phase, and the placement decision must not be redrawn
			// (round-robin advances on every Place call).
			if !t.placed {
				t.roundStart = t.eng.Now()
				t.node = t.fleet.Place(t)
				t.placed = true
			}
			if p == nil {
				if c, ok := t.clients[t.node]; !ok || !c.Task.Alive {
					// First touch (setup syscalls) or a dead handle:
					// both need the process.
					t.toProc(t.coldKind, false)
					return
				}
			}
			client, err := t.clientOn(p, t.node)
			if err != nil {
				t.setupErr = err
				t.fleet.roundDone(t.node)
				t.stop()
				return
			}
			t.client = client
			cold := t.last != nil && t.last != t.node && t.Spec.WorkingSet > 0
			t.last = t.node
			if !cold {
				t.phase = tphThink
				continue
			}
			// Cold round: rebuild the warm state before the round's own
			// requests. The reconstruction occupies the destination
			// engine, so migration costs the fleet real capacity.
			t.Migrations++
			t.ColdTime += t.Spec.WorkingSet
			t.phase = tphCold
		case tphCold:
			if !t.submitBlocking(p, t.coldKind, t.Spec.WorkingSet) {
				return
			}
		case tphThink:
			t.phase = tphSubmit
			t.idx = 0
			t.eng.After(t.rng.Jitter(t.Spec.CPU, t.Spec.Jitter), t.stepFn)
			return
		case tphSubmit:
			if t.idx == len(t.reqs) {
				t.phase = tphFence
				continue
			}
			rq := t.reqs[t.idx]
			if rq.Trivial || t.Spec.Pipelined {
				fault := t.slowFault
				t.slowFault = false
				if !fault {
					if _, ok := t.client.SubmitAsync(t.eng, rq.Kind, rq.Size, t.fireDone); ok {
						t.pending++
						t.idx++
						dw := t.node.Kernel.Costs().DirectWrite
						if p == nil {
							t.eng.After(dw, t.stepFn)
							return
						}
						p.Sleep(dw)
						continue
					}
					if p == nil {
						t.toProc(rq.Kind, true)
						return
					}
				}
				if fault {
					t.pending++
					if t.client.SubmitEngaged(p, rq.Kind, rq.Size, t.fireDone) == nil {
						t.pending--
					}
				} else if r := t.client.SubmitDetached(p, rq.Kind, rq.Size); r != nil {
					t.pending++
					if r.IsDone() {
						t.fireDone(r)
					} else {
						r.OnDone = t.fireDone
					}
				}
				t.idx++
			} else if !t.submitBlocking(p, rq.Kind, rq.Size) {
				return
			}
		case tphFence:
			if t.pending > 0 {
				t.fencing = true
				return
			}
			t.fencing = false
			for i, r := range t.retire {
				r.Release()
				t.retire[i] = nil
			}
			t.retire = t.retire[:0]
			t.fleet.roundDone(t.node)
			if off := t.Spec.OffTime(); off > 0 {
				t.phase = tphOff
				t.eng.After(off, t.stepFn)
				return
			}
			t.endRound()
		case tphOff:
			t.endRound()
		}
	}
}

// submitBlocking issues one submit-and-wait request for the current
// phase. It returns false when the machine must yield: the request is
// in flight with a continuation, or the submission was handed to the
// slow lane. On a nil (dead-handle) submission it advances as the old
// blocking loop did — the next placement notices the dead task.
func (t *Tenant) submitBlocking(p *sim.Proc, kind gpu.Kind, size sim.Duration) bool {
	fault := t.slowFault
	t.slowFault = false
	if !fault {
		if r, ok := t.client.SubmitAsync(t.eng, kind, size, t.blockDone); ok {
			t.awaiting = r
			return false
		}
		if p == nil {
			t.toProc(kind, true)
			return false
		}
	}
	var r *gpu.Request
	if fault {
		if r = t.client.SubmitEngaged(p, kind, size, nil); r != nil {
			p.Wait(r.DoneGate())
		}
	} else {
		r = t.client.SubmitSync(p, kind, size)
	}
	if r != nil {
		r.Release()
	}
	t.advance()
	return true
}

// advance moves past the blocking submission that just completed: the
// cold rebuild yields to the think phase, a round request to the next
// request in the sequence.
func (t *Tenant) advance() {
	if t.phase == tphCold {
		t.phase = tphThink
	} else {
		t.idx++
	}
}

// endRound accounts the finished round; the step loop then re-enters
// tphPlace in the same turn, exactly as the blocking loop began its
// next round without yielding.
func (t *Tenant) endRound() {
	now := t.eng.Now()
	t.Rounds++
	t.PerDevice[t.node.Index]++
	t.RoundTime += now.Sub(t.roundStart)
	t.phase = tphPlace
	t.placed = false
}

// toProc hands the machine to the slow-lane process. When the handoff
// is for a refused submission, the fault-or-direct decision is
// committed here, at the refusal instant, because the scheduler may
// flip the channel's engagement within the same instant (see
// userlib.Engaged and DESIGN.md §14).
func (t *Tenant) toProc(kind gpu.Kind, submission bool) {
	if submission {
		t.slowFault = t.client.Engaged(kind)
	}
	t.slowGate.Signal()
}

// stop halts the machine and releases the slow-lane process.
func (t *Tenant) stop() {
	t.stopped = true
	t.slowGate.Signal()
}
