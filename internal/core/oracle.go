package core

import (
	"time"

	"repro/internal/neon"
	"repro/internal/sim"
)

// DefaultOracleInterval is the oracle's accounting interval, a fixed
// constant: one full DFQ engagement+free-run cycle.
const DefaultOracleInterval = 30 * time.Millisecond

// OracleFairQueueing is the Section 6.1 ablation: disengaged fair
// queueing as it would exist with vendor cooperation. The device exports
// per-context busy time (gpu.Context.BusyTime), so the scheduler needs no
// barriers, no draining, and no sampling runs — it simply reads the
// counters every interval, updates virtual times with *true* usage, and
// denies tasks that have run too far ahead. It keeps the Ledger
// DisengagedFairQueueing keeps and ends its intervals with the same
// episode routine, so the two differ only in where the charges come
// from: Use as measured here, an estimated split there. Comparing it with
// DisengagedFairQueueing isolates the cost of software estimation: the
// glxgears and oclParticles anomalies disappear.
type OracleFairQueueing struct {
	fairQueue[oracleTask, *oracleTask]

	k         *neon.Kernel
	speed     float64 // device class speed factor, set at Start
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
	flowTask
	lastBusy sim.Duration
}

// NewOracleFairQueueing returns the hardware-statistics scheduler,
// accounting every DefaultOracleInterval.
func NewOracleFairQueueing() *OracleFairQueueing { return &OracleFairQueueing{} }

// Name implements neon.Scheduler.
func (o *OracleFairQueueing) Name() string { return "oracle-fair-queueing" }

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
	o.admit(t)
	o.admitGate.Broadcast()
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
	o.c.Sleep(DefaultOracleInterval, o.elapsedFn)
}

// elapsed follows the interval's sleep.
func (o *OracleFairQueueing) elapsed() {
	o.c.Sleep(o.k.Costs().SchedulerCompute, o.accountFn)
}

// account ends the interval's episode (Ledger.Episode): each task is
// charged the busy time the device measured for it, normalized to work
// units at the device's class speed and divided by its fair-share
// weight, and a task that used the device or has work waiting is
// active. The window is the interval and the compute since the last
// account, the most device time a task can have used. Tasks whose lead
// reaches the interval are denied the next one; the rest are admitted.
func (o *OracleFairQueueing) account() {
	o.Intervals++
	o.k.EnforceRunLimit()

	tasks := o.k.Tasks()
	es := o.entries[:0]
	for _, t := range tasks {
		s := o.st.get(t)
		busy := t.BusyTime()
		es = append(es, Entry{Flow: s.flow, Weight: t.ShareWeight(), Denied: s.denied, Use: busy - s.lastBusy,
			Active: busy > s.lastBusy || t.PendingRequests() > 0 || t.Gate().Waiters() > 0})
		s.lastBusy = busy
	}
	o.entries = es
	o.ledger.Episode(es, EpisodeParams{Window: DefaultOracleInterval + o.k.Costs().SchedulerCompute,
		Horizon: DefaultOracleInterval, Speed: o.speed, Measured: true})

	for i, t := range tasks {
		s := o.st.get(t)
		denied := es[i].Denied
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

var (
	_ neon.Scheduler = (*OracleFairQueueing)(nil)
	_ neon.Admitter  = (*OracleFairQueueing)(nil)
)
