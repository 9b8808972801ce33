package core

import (
	"time"

	"repro/internal/neon"
	"repro/internal/sim"
)

// DefaultOracleInterval matches one full DFQ engagement+free-run cycle.
const DefaultOracleInterval = 30 * time.Millisecond

// OracleFairQueueing is the Section 6.1 ablation: disengaged fair
// queueing as it would exist with vendor cooperation. The device exports
// per-context busy time (gpu.Context.BusyTime), so the scheduler needs no
// barriers, no draining, and no sampling runs — it simply reads the
// counters every interval, updates virtual times with *true* usage, and
// denies tasks that have run too far ahead. The virtual times live in a
// FlowIndex, the ledger DisengagedFairQueueing keeps, so the two differ
// only in where the charges come from. Comparing it with
// DisengagedFairQueueing isolates the cost of software estimation: the
// glxgears and oclParticles anomalies disappear.
type OracleFairQueueing struct {
	interval sim.Duration

	k         *neon.Kernel
	speed     float64 // device class speed factor, set at Start
	st        taskSlots[oracleTask]
	ledger    FlowIndex
	admitGate *sim.Gate

	// The accounting loop runs on c (see cycle).
	c                             *sim.Cont
	cycleFn, elapsedFn, accountFn func()

	// Intervals counts completed accounting rounds, for tests.
	Intervals int64
	// Denials counts task-intervals denied, for tests.
	Denials int64
}

type oracleTask struct {
	flow     FlowID // the task's slot in the virtual-time ledger
	lastBusy sim.Duration
	denied   bool
}

// NewOracleFairQueueing returns the hardware-statistics scheduler.
func NewOracleFairQueueing(interval sim.Duration) *OracleFairQueueing {
	if interval <= 0 {
		interval = DefaultOracleInterval
	}
	return &OracleFairQueueing{interval: interval}
}

// Name implements neon.Scheduler.
func (o *OracleFairQueueing) Name() string { return "oracle-fair-queueing" }

// VirtualTime returns the task's virtual time in normalized work, for
// tests.
func (o *OracleFairQueueing) VirtualTime(t *neon.Task) Work {
	if s := o.st.get(t); s != nil {
		return o.ledger.VT(s.flow)
	}
	return 0
}

// Denied reports whether the task is currently excluded.
func (o *OracleFairQueueing) Denied(t *neon.Task) bool {
	s := o.st.get(t)
	return s != nil && s.denied
}

// Start implements neon.Scheduler: the accounting loop starts at the
// back of the current instant.
func (o *OracleFairQueueing) Start(k *neon.Kernel) {
	o.k = k
	o.speed = k.Device().ClassSpeed()
	o.admitGate = k.Engine().NewGate("oracle-admit")
	o.c = k.Engine().NewCont()
	o.cycleFn, o.elapsedFn, o.accountFn = o.cycle, o.elapsed, o.account
	o.c.Yield(o.cycleFn)
}

// TaskAdmitted implements neon.Scheduler.
func (o *OracleFairQueueing) TaskAdmitted(t *neon.Task) {
	o.st.add(t).flow = o.ledger.Add()
	o.admitGate.Broadcast()
}

// TaskExited implements neon.Scheduler.
func (o *OracleFairQueueing) TaskExited(t *neon.Task) {
	if s := o.st.get(t); s != nil {
		o.ledger.Remove(s.flow)
	}
	o.st.remove(t)
}

// ChannelActivated implements neon.Scheduler.
func (o *OracleFairQueueing) ChannelActivated(cs *neon.ChannelState) {
	cs.Ch.Reg.SetPresent(!o.Denied(cs.Task))
}

// Admit implements neon.Admitter: only denied tasks ever fault, and
// they wait out the interval.
func (o *OracleFairQueueing) Admit(t *neon.Task) bool { return !o.Denied(t) }

// cycle is the accounting loop, one step of c per wake-up: once tasks
// exist, it sleeps out an interval and the scheduler's compute, then
// reads the hardware usage counters and updates the fair-queueing
// state (account). No draining or sampling is ever needed.
func (o *OracleFairQueueing) cycle() {
	if len(o.k.Tasks()) == 0 {
		o.c.Wait(o.admitGate, o.cycleFn)
		return
	}
	o.c.Sleep(o.interval, o.elapsedFn)
}

// elapsed follows the interval's sleep.
func (o *OracleFairQueueing) elapsed() {
	o.c.Sleep(o.k.Costs().SchedulerCompute, o.accountFn)
}

// account charges the interval's usage, denies tasks too far ahead and
// starts the next interval.
func (o *OracleFairQueueing) account() {
	o.Intervals++
	o.k.EnforceRunLimit()

	// Step 1: charge true per-task usage, read from the device,
	// normalized to work units at the device's class speed, and
	// divided by the task's fair-share weight. A task that used the
	// device or has work waiting is active.
	for _, t := range o.k.Tasks() {
		s := o.state(t)
		busy := t.BusyTime()
		delta := busy - s.lastBusy
		s.lastBusy = busy
		o.ledger.Charge(s.flow, PerWeight(WorkFor(delta, o.speed), t.ShareWeight()))
		o.ledger.SetActive(s.flow, delta > 0 || t.PendingRequests() > 0 || t.Gate().Waiters() > 0)
	}

	// Step 2: the system virtual time advances to the oldest active
	// virtual time, and idle tasks forfeit unused credit (lazily, in the
	// ledger).
	o.ledger.AdvanceSysVT()

	// Step 3: deny tasks too far ahead; admit the rest.
	horizon := WorkFor(o.interval, o.speed)
	for _, t := range o.k.Tasks() {
		s := o.state(t)
		denied := o.ledger.Lead(s.flow) >= horizon
		if denied && !s.denied {
			o.Denials++
			o.k.Engage(t)
		}
		if !denied && s.denied {
			o.k.Disengage(t)
		}
		s.denied = denied
		if !denied {
			t.Gate().Broadcast()
		}
	}
	o.cycle()
}

func (o *OracleFairQueueing) state(t *neon.Task) *oracleTask {
	if s := o.st.get(t); s != nil {
		return s
	}
	s := o.st.add(t)
	s.flow = o.ledger.Add()
	return s
}

var (
	_ neon.Scheduler = (*OracleFairQueueing)(nil)
	_ neon.Admitter  = (*OracleFairQueueing)(nil)
)
