package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// TestEngagedAppPairOwnsNoProcs: under engaged Timeslice every
// submission faults, yet once setup ends the apps own no proc — the
// only live proc is the scheduler's own — and a steady-state fault,
// trap to completion, allocates nothing.
func TestEngagedAppPairOwnsNoProcs(t *testing.T) {
	e := sim.NewEngine()
	// A slice longer than the test keeps the per-slice drain, which
	// allocates its result maps, out of the measured window.
	k := neon.NewKernel(gpu.New(e, gpu.DefaultConfig()), core.NewTimeslice(time.Second))
	a := Launch(k, Throttle(50*time.Microsecond, 0), sim.NewRNG(1))
	bs := Throttle(50*time.Microsecond, 0)
	bs.Name = "Throttle-b"
	b := Launch(k, bs, sim.NewRNG(2))
	e.RunFor(5 * time.Millisecond)
	for _, app := range []*App{a, b} {
		if err := app.SetupError(); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.LiveProcs(); n != 1 {
		t.Fatalf("%d live procs after setup, want 1 (the scheduler's)", n)
	}
	faults, rounds := k.TotalFaults, a.Rounds+b.Rounds
	if allocs := testing.AllocsPerRun(10, func() { e.RunFor(time.Millisecond) }); allocs != 0 {
		t.Errorf("engaged steady state allocated %.1f times per simulated ms, want 0", allocs)
	}
	if k.TotalFaults-faults < 100 || a.Rounds+b.Rounds-rounds < 100 {
		t.Fatalf("measured window saw %d faults and %d rounds; expected a busy engaged holder",
			k.TotalFaults-faults, a.Rounds+b.Rounds-rounds)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("%d live procs in steady state", e.LiveProcs())
	}
}

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
		a := Launch(k, Throttle(50*time.Microsecond, 0), sim.NewRNG(1))
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
