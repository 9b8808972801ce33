package core

import (
	"time"

	"repro/internal/neon"
	"repro/internal/sim"
)

// DefaultSlice is the paper's timeslice length (Section 5.2): long enough
// to amortize token passing, short enough to stay under the 100 ms human
// perception threshold.
const DefaultSlice = 30 * time.Millisecond

// Timeslice is the token-based timeslice scheduler with overuse control
// (paper Section 3.1), in both its engaged and disengaged forms.
//
// A token circulates round-robin among live tasks; only the holder's
// requests may reach the device. At the end of each slice the kernel
// drains the holder's outstanding requests; time past the slice boundary
// is charged as overuse, and a task whose accrued overuse exceeds a full
// slice forfeits its next turn. Over-long requests are handled by the
// kernel's run-limit kill during the drain.
//
// In the engaged form every submission is intercepted (pages always
// protected), paying the full per-request cost. In the disengaged form
// the holder's pages are mapped for direct access during its slice, so
// interception costs are paid only by tasks trying to run out of turn.
//
// Overuse is accounted in weighted normalized work (drain time past the
// slice boundary scaled by the device's class speed and divided by the
// task's fair-share weight), and a turn is forfeited once the debt
// reaches one slice's worth of work at that device — so the overuse
// ledger means the same thing on every class of a mixed fleet, and a
// heavier-weight task works off the same overrun in fewer forfeited
// turns. The token rotation itself stays unweighted round-robin, so
// timeslicing differentiates weights only at the overuse margin — the
// contrast the tiers experiment shows against weighted DFQ.
type Timeslice struct {
	slice      sim.Duration
	disengaged bool

	k         *neon.Kernel
	speed     float64 // device class speed factor, set at Start
	rotation  []*neon.Task
	next      int
	holder    *neon.Task
	overuse   map[*neon.Task]Work
	admitGate *sim.Gate

	// The slice loop runs on c (see grant). cur is the last slice's
	// task, kept apart from holder, which TaskExited clears, and
	// deadline is that slice's end.
	c                              *sim.Cont
	cur                            *neon.Task
	deadline                       sim.Time
	grantFn, sliceEndFn, drainedFn func()

	// SlicesGranted counts slices actually granted, for tests.
	SlicesGranted int64
	// TurnsSkipped counts turns forfeited to overuse, for tests.
	TurnsSkipped int64
}

// NewTimeslice returns the engaged variant: every request is intercepted.
func NewTimeslice(slice sim.Duration) *Timeslice {
	return &Timeslice{slice: slice, overuse: make(map[*neon.Task]Work)}
}

// NewDisengagedTimeslice returns the disengaged variant: the token holder
// gets direct access for the duration of its slice.
func NewDisengagedTimeslice(slice sim.Duration) *Timeslice {
	ts := NewTimeslice(slice)
	ts.disengaged = true
	return ts
}

// Name implements neon.Scheduler.
func (ts *Timeslice) Name() string {
	if ts.disengaged {
		return "disengaged-timeslice"
	}
	return "timeslice"
}

// Holder returns the current token holder (nil between slices).
func (ts *Timeslice) Holder() *neon.Task { return ts.holder }

// Start implements neon.Scheduler: the first slice is granted at the
// back of the current instant.
func (ts *Timeslice) Start(k *neon.Kernel) {
	ts.k = k
	ts.speed = k.Device().ClassSpeed()
	ts.admitGate = k.Engine().NewGate("ts-admit")
	ts.c = k.Engine().NewCont()
	ts.grantFn, ts.sliceEndFn, ts.drainedFn = ts.grant, ts.sliceEnd, ts.drained
	ts.c.Yield(ts.grantFn)
}

// sliceWork is one slice converted to this device's work rate: the debt
// quantum a forfeited turn repays.
func (ts *Timeslice) sliceWork() Work { return WorkFor(ts.slice, ts.speed) }

// TaskAdmitted implements neon.Scheduler.
func (ts *Timeslice) TaskAdmitted(t *neon.Task) {
	ts.rotation = append(ts.rotation, t)
	ts.admitGate.Broadcast()
}

// TaskExited implements neon.Scheduler.
func (ts *Timeslice) TaskExited(t *neon.Task) {
	for i, x := range ts.rotation {
		if x == t {
			ts.rotation = append(ts.rotation[:i], ts.rotation[i+1:]...)
			if ts.next > i {
				ts.next--
			}
			break
		}
	}
	delete(ts.overuse, t)
	if ts.holder == t {
		ts.holder = nil
	}
}

// ChannelActivated implements neon.Scheduler: protection is the default;
// under the disengaged variant the holder's own new channels are mapped.
func (ts *Timeslice) ChannelActivated(cs *neon.ChannelState) {
	direct := ts.disengaged && ts.holder == cs.Task
	cs.Ch.Reg.SetPresent(direct)
}

// Admit implements neon.Admitter: out-of-turn submissions wait until
// the submitting task holds the token.
func (ts *Timeslice) Admit(t *neon.Task) bool { return ts.holder == t }

// grant is the scheduler's control loop, one step of c per wake-up:
// grant the token and sleep out the slice (sliceEnd), re-engage and
// drain the holder (drained), charge its overuse, rotate.
func (ts *Timeslice) grant() {
	t := ts.pick()
	if t == nil {
		ts.c.Wait(ts.admitGate, ts.grantFn)
		return
	}

	ts.holder, ts.cur = t, t
	ts.SlicesGranted++
	if ts.disengaged {
		ts.k.Disengage(t)
	}
	t.Gate().Broadcast()

	ts.deadline = ts.k.Engine().Now().Add(ts.slice)
	ts.c.Sleep(ts.slice, ts.sliceEndFn)
}

// sliceEnd takes the token back and drains the slice's task.
func (ts *Timeslice) sliceEnd() {
	ts.holder = nil
	if !ts.cur.Alive {
		ts.grant()
		return
	}
	if ts.disengaged {
		ts.k.Engage(ts.cur)
	}
	ts.k.DrainOn(ts.c, []*neon.Task{ts.cur}, ts.drainedFn)
}

// drained charges the drain's time past the slice boundary as overuse.
func (ts *Timeslice) drained() {
	if t := ts.cur; t.Alive {
		over := max(0, ts.k.Engine().Now().Sub(ts.deadline))
		ts.overuse[t] += PerWeight(WorkFor(over, ts.speed), t.ShareWeight())
	}
	ts.grant()
}

// pick selects the next token holder, consuming skipped turns of
// overusers. A skipped turn costs its task one slice of accrued overuse
// and passes the token on immediately. Returns nil when no tasks exist.
func (ts *Timeslice) pick() *neon.Task {
	if len(ts.rotation) == 0 {
		return nil
	}
	// Overuse is finite, so this terminates: every inspection of an
	// ineligible task decrements its debt by a full slice.
	for {
		if len(ts.rotation) == 0 {
			return nil
		}
		if ts.next >= len(ts.rotation) {
			ts.next = 0
		}
		t := ts.rotation[ts.next]
		ts.next++
		if !t.Alive {
			continue
		}
		if quantum := ts.sliceWork(); ts.overuse[t] >= quantum {
			ts.overuse[t] -= quantum
			ts.TurnsSkipped++
			continue
		}
		return t
	}
}

var (
	_ neon.Scheduler = (*Timeslice)(nil)
	_ neon.Admitter  = (*Timeslice)(nil)
)
