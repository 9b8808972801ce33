package neon

import (
	"repro/internal/sim"
)

// drain is a kernel's drain record.
type drain struct {
	k    *Kernel
	c    *sim.Cont
	then func()
	// tasks is the drain set; polling filters it down to the tasks not
	// yet drained.
	tasks []*Task
	// The scan's position: the next task, the channel slice of the task
	// being scanned as it stood when its scan began, the next index
	// into it, and the channel whose scan is being slept.
	task, ch int
	chans    []*ChannelState
	cs       *ChannelState

	lastProgress      sim.Time
	lastSnapshot      uint64
	scannedFn, pollFn func() // bound once per kernel
}

// DrainOn waits, as steps of c, until every outstanding request of the
// given tasks has completed, as observed through reference counters at
// the kernel's polling granularity, and then calls then as a step of
// c. Callers must first have arranged (via engagement and scheduler
// policy) that the tasks submit no new work. DrainOn copies tasks; a
// kernel runs one drain at a time.
//
// The post-re-engagement status update is charged first: one
// ReengageScan sleep per active channel, after which the channel's last
// submitted reference value is read as its drain target.
//
// If RequestRunLimit is non-zero and a request occupies the device beyond
// it, the task owning the currently running context is killed through the
// exit protocol. The prototype identifies that context as the last token
// holder (timeslice) or the sampled task; here we consult the device's
// current request, standing in for the Section 6.2 vendor mechanism to
// "identify and kill the currently running context".
func (k *Kernel) DrainOn(c *sim.Cont, tasks []*Task, then func()) {
	d := &k.drain
	if d.k == nil {
		d.k = k
		d.scannedFn, d.pollFn = d.scanned, d.poll
	}
	d.c, d.then = c, then
	d.tasks = append(d.tasks[:0], tasks...)
	d.task, d.chans, d.ch = 0, nil, 0
	d.scan()
}

// scan sleeps one ReengageScan per channel, task by task, then starts
// polling.
func (d *drain) scan() {
	for d.ch == len(d.chans) {
		if d.task == len(d.tasks) {
			d.chans, d.cs = nil, nil
			d.lastProgress = d.k.eng.Now()
			d.lastSnapshot = d.k.refSnapshot(d.tasks)
			d.poll()
			return
		}
		d.chans, d.ch = d.tasks[d.task].channels, 0
		d.task++
	}
	d.cs = d.chans[d.ch]
	d.ch++
	d.c.Sleep(d.k.costs.ReengageScan, d.scannedFn)
}

// scanned reads the scanned channel's drain target after its sleep.
func (d *drain) scanned() {
	d.cs.drainTarget = d.cs.Ch.LastSubmittedRef
	d.scan()
}

// poll checks the tasks not yet drained: draining completes at once if
// the device is not working on their requests. Otherwise it applies
// the run limit and polls again one PollInterval later.
func (d *drain) poll() {
	k := d.k
	still := d.tasks[:0]
	for _, t := range d.tasks {
		if t.Alive && !t.drained() {
			still = append(still, t)
		}
	}
	d.tasks = still
	if len(still) == 0 {
		then := d.then
		d.c, d.then = nil, nil
		then()
		return
	}
	now := k.eng.Now()
	if snap := k.refSnapshot(still); snap != d.lastSnapshot {
		d.lastSnapshot = snap
		d.lastProgress = now
	}
	if k.RequestRunLimit > 0 && now.Sub(d.lastProgress) > k.RequestRunLimit {
		if victim := k.runningTask(); victim != nil {
			k.KillTask(victim, "request exceeded run limit")
		}
		d.lastProgress = now
	}
	d.c.Sleep(k.costs.PollInterval, d.pollFn)
}

// drained reports whether all of the task's channels have reached their
// drain targets.
func (t *Task) drained() bool {
	for _, cs := range t.channels {
		if cs.Ch.RefCount < cs.drainTarget {
			return false
		}
	}
	return true
}

// refSnapshot folds the tasks' reference counters into a single progress
// fingerprint.
func (k *Kernel) refSnapshot(tasks []*Task) uint64 {
	var h uint64 = 1469598103934665603
	for _, t := range tasks {
		for _, cs := range t.channels {
			h ^= cs.Ch.RefCount + uint64(cs.Ch.ID)<<32
			h *= 1099511628211
		}
	}
	return h
}

// runningTask returns the task owning the request currently executing on
// the device's main engine, if any.
func (k *Kernel) runningTask() *Task {
	cur := k.dev.CurrentRequest()
	if cur == nil {
		return nil
	}
	if id := int(cur.Channel().Ctx.Owner); id >= 0 && id < len(k.taskOrder) {
		return k.taskOrder[id]
	}
	return nil
}

// EnforceRunLimit kills the task owning the currently executing request
// if that request has occupied the engine beyond RequestRunLimit. This is
// the barrier-free enforcement path used by schedulers that never drain
// (oracle fair queueing); it relies on the same identify-the-running-
// context mechanism as DrainOn. Returns the killed task, if any.
func (k *Kernel) EnforceRunLimit() *Task {
	if k.RequestRunLimit <= 0 {
		return nil
	}
	cur := k.dev.CurrentRequest()
	if cur == nil || k.eng.Now().Sub(cur.Started) <= k.RequestRunLimit {
		return nil
	}
	t := k.runningTask()
	if t != nil {
		k.KillTask(t, "request exceeded run limit")
	}
	return t
}
