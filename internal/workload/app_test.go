package workload

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// engagedSched keeps every channel engaged and holds back the faults of
// blocked tasks until they are unblocked.
type engagedSched struct {
	passthrough
	blocked map[*neon.Task]bool
}

func (engagedSched) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(false) }
func (s engagedSched) Admit(t *neon.Task) bool              { return !s.blocked[t] }

// TestKillDuringFaultAppLane is the kill rule on the App's slow lane:
// killing the task during the trap, the handler's scan or the wait for
// admission cancels the rest of the fault, as it did for the slow-lane
// process. No store reaches the device, the kernel counts the fault
// only once its handler has run, nothing stays queued on the task's
// gate, and no event of the fault — or of the App — outlives the kill.
func TestKillDuringFaultAppLane(t *testing.T) {
	stages := []struct {
		name    string
		at      func(c cost.Model) sim.Duration // offset from the store
		handled int64
	}{
		{"trap", func(c cost.Model) sim.Duration { return c.FaultTrap / 2 }, 0},
		{"scan", func(c cost.Model) sim.Duration { return c.FaultTrap + c.FaultScan/2 }, 1},
		{"scheduler wait", func(c cost.Model) sim.Duration { return c.FaultTrap + c.FaultScan + 5*time.Microsecond }, 1},
	}
	for _, st := range stages {
		e := sim.NewEngine()
		sched := engagedSched{blocked: map[*neon.Task]bool{}}
		k := neon.NewKernel(gpu.New(e, gpu.DefaultConfig()), sched)
		a := Launch(k, Throttle(50*time.Microsecond, 0))
		sched.blocked[a.Task] = true
		for len(a.Task.Channels()) == 0 {
			e.Step()
		}
		cs := a.Task.Channels()[0]
		for cs.Ch.Reg.Faults == 0 { // the first submission's fault begins
			e.Step()
		}
		r := cs.Ch.StagedRequests()[0]
		killAt := e.Now().Add(st.at(k.Costs()))
		queued := -1
		e.Schedule(killAt, func() {
			k.KillTask(a.Task, "test")
			queued = e.Pending()
		})
		e.Run()
		if queued != 0 || e.Now() != killAt {
			t.Errorf("%s: %d events queued after the kill; the last ran at %v, the kill at %v",
				st.name, queued, e.Now(), killAt)
		}
		if r.Submitted != 0 || cs.Ch.LastSubmittedRef != 0 {
			t.Errorf("%s: the store reached the device", st.name)
		}
		if cs.Ch.Reg.Faults != 1 || k.TotalFaults != st.handled || cs.Faults != st.handled {
			t.Errorf("%s: faults page/kernel/channel = %d/%d/%d, want 1/%d/%d",
				st.name, cs.Ch.Reg.Faults, k.TotalFaults, cs.Faults, st.handled, st.handled)
		}
		if n := a.Task.Gate().Waiters(); n != 0 {
			t.Errorf("%s: %d waiters left on the task gate", st.name, n)
		}
		if e.LiveProcs() != 0 {
			t.Errorf("%s: %d live procs", st.name, e.LiveProcs())
		}
	}
}

// TestRefusalHopsToTheLane pins where an App takes the fault its
// engine-context refusal committed to: on its lane, at the back of the
// refusal's instant, where the slow-lane process woke — not inline in
// the refusing step. An event that runs in that instant between the
// two starts a chain that blocks the task's admission exactly when the
// fault's scan ends. After the hop the chain's events precede the
// fault's, so the fault finds the task blocked and waits on its gate;
// a fault started inline would have been admitted first.
func TestRefusalHopsToTheLane(t *testing.T) {
	e := sim.NewEngine()
	sched := engagedSched{blocked: map[*neon.Task]bool{}}
	k := neon.NewKernel(gpu.New(e, gpu.DefaultConfig()), sched)
	spec := Throttle(50*time.Microsecond, 0)
	a := Launch(k, spec)
	for a.Rounds < 3 { // a round just ended: the next think timer is armed
		if !e.Step() {
			t.Fatal("the engine ran dry")
		}
	}
	c := k.Costs()
	refusal := e.Now().Add(spec.CPU)
	e.Schedule(refusal, func() {
		e.After(c.FaultTrap, func() {
			e.After(c.FaultScan, func() { sched.blocked[a.Task] = true })
		})
	})
	e.RunUntil(refusal.Add(c.FaultTrap + c.FaultScan))
	if n := a.Task.Gate().Waiters(); n != 1 {
		t.Fatalf("%d waiters on the task's gate when the scan ended, want the fault", n)
	}
}
