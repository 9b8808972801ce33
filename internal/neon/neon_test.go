package neon

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/mmio"
	"repro/internal/sim"
)

// recordingSched is a minimal Scheduler that records events and lets
// everything run, optionally keeping channels engaged. It counts no
// faults itself: its admission predicate may run more than once per
// fault, so tests read Kernel.TotalFaults.
type recordingSched struct {
	engageAll bool
	admitted  []*Task
	exited    []*Task
	activated []*ChannelState
	blockers  map[*Task]bool // tasks whose faults should block
}

// CreateContext is the context-setup syscall's blocking form: p parks
// once, for the trap and the driver work.
func (k *Kernel) CreateContext(p *sim.Proc, t *Task, label string) (*gpu.Context, error) {
	return sim.AwaitResult(p, func(c *sim.Cont, then func(*gpu.Context, error)) {
		k.CreateContextOn(c, t, label, then)
	})
}

// CreateChannel is the channel-setup syscall's blocking form.
func (k *Kernel) CreateChannel(p *sim.Proc, t *Task, ctx *gpu.Context, kind gpu.Kind) (*ChannelState, error) {
	return sim.AwaitResult(p, func(c *sim.Cont, then func(*ChannelState, error)) {
		k.CreateChannelOn(c, t, ctx, kind, then)
	})
}

// Acquire is AcquireOn's blocking form: it returns the pinned channel
// of the given kind, attaching first if need be, which may park p
// waiting for a slot.
func (vc *VContext) Acquire(p *sim.Proc, kind gpu.Kind) (*gpu.Channel, error) {
	return sim.AwaitResult(p, func(c *sim.Cont, then func(*gpu.Channel, error)) {
		vc.AcquireOn(c, kind, then)
	})
}

func (r *recordingSched) Name() string         { return "recording" }
func (r *recordingSched) Start(*Kernel)        {}
func (r *recordingSched) TaskAdmitted(t *Task) { r.admitted = append(r.admitted, t) }
func (r *recordingSched) TaskExited(t *Task)   { r.exited = append(r.exited, t) }
func (r *recordingSched) ChannelActivated(cs *ChannelState) {
	r.activated = append(r.activated, cs)
	cs.Ch.Reg.SetPresent(!r.engageAll)
}
func (r *recordingSched) Admit(t *Task) bool { return !r.blockers[t] }

func testKernel(t *testing.T, sched Scheduler) (*sim.Engine, *gpu.Device, *Kernel) {
	t.Helper()
	e := sim.NewEngine()
	d := gpu.New(e, gpu.DefaultConfig())
	return e, d, NewKernel(d, sched)
}

// openChannel creates a task with one compute channel, from inside a
// task process, and returns both once setup completes.
func openChannel(t *testing.T, e *sim.Engine, k *Kernel) (*Task, *ChannelState) {
	t.Helper()
	task := k.NewTask("t")
	var cs *ChannelState
	task.Go("setup", func(p *sim.Proc) {
		ctx, err := k.CreateContext(p, task, "ctx")
		if err != nil {
			t.Errorf("CreateContext: %v", err)
			return
		}
		cs, err = k.CreateChannel(p, task, ctx, gpu.Compute)
		if err != nil {
			t.Errorf("CreateChannel: %v", err)
		}
	})
	e.RunFor(time.Millisecond)
	if cs == nil {
		t.Fatal("channel setup did not finish")
	}
	return task, cs
}

func TestInitializationPhaseTracksChannels(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	if len(sched.admitted) != 1 || sched.admitted[0] != task {
		t.Fatal("TaskAdmitted not delivered")
	}
	if len(sched.activated) != 1 || sched.activated[0] != cs {
		t.Fatal("ChannelActivated not delivered")
	}
	if k.byPage[cs.Ch.Reg] != cs {
		t.Fatal("channel page not routed to the kernel after init phase")
	}
	if len(task.Channels()) != 1 || len(task.Contexts()) != 1 {
		t.Fatal("task bookkeeping wrong")
	}
}

func TestEngagedSubmissionFaultsIntoScheduler(t *testing.T) {
	sched := &recordingSched{engageAll: true}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		r := cs.Ch.Stage(10*time.Microsecond, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
	})
	e.RunFor(time.Millisecond)
	if cs.Faults != 1 || k.TotalFaults != 1 || cs.Ch.Reg.Faults != 1 {
		t.Fatalf("fault counts: cs=%d kernel=%d page=%d", cs.Faults, k.TotalFaults, cs.Ch.Reg.Faults)
	}
}

func TestDisengagedSubmissionBypassesKernel(t *testing.T) {
	sched := &recordingSched{engageAll: false}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r := cs.Ch.Stage(10*time.Microsecond, gpu.Compute)
			cs.Ch.Reg.Store(p, r.Ref)
			p.Wait(r.DoneGate())
		}
	})
	e.RunFor(time.Millisecond)
	if k.TotalFaults != 0 {
		t.Fatalf("disengaged task faulted %d times", k.TotalFaults)
	}
	if cs.Ch.Completions != 5 {
		t.Fatalf("completions = %d", cs.Ch.Completions)
	}
}

func TestEngageDisengageFlipsProtection(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	if !cs.Ch.Reg.Present() {
		t.Fatal("channel should start direct-mapped under this policy")
	}
	k.Engage(task)
	if cs.Ch.Reg.Present() {
		t.Fatal("Engage did not protect the page")
	}
	k.Disengage(task)
	if !cs.Ch.Reg.Present() {
		t.Fatal("Disengage did not unprotect the page")
	}
}

func TestFaultCostsChargedToSubmitter(t *testing.T) {
	sched := &recordingSched{engageAll: true}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	var took sim.Duration
	task.Go("work", func(p *sim.Proc) {
		start := p.Now()
		r := cs.Ch.Stage(10*time.Microsecond, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
		took = p.Now().Sub(start)
	})
	e.RunFor(time.Millisecond)
	want := k.Costs().InterceptCost()
	if took != want {
		t.Fatalf("intercepted store took %v, want %v", took, want)
	}
}

func TestDrainWaitsForOutstanding(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		r := cs.Ch.Stage(500*time.Microsecond, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
	})
	at := sim.Time(-1)
	c := e.NewCont()
	c.Sleep(50*time.Microsecond, func() { // let the request start
		k.DrainOn(c, []*Task{task}, func() { at = e.Now() })
	})
	e.RunFor(10 * time.Millisecond)
	if at < 0 {
		t.Fatal("drain never completed")
	}
	// Completion at ~500us, observed at the next poll tick.
	if at < sim.Time(500*time.Microsecond) {
		t.Fatalf("drained at %v, before the request finished", at)
	}
	if at > sim.Time(500*time.Microsecond+2*k.Costs().PollInterval) {
		t.Fatalf("drained at %v, more than 2 poll ticks late", at)
	}
}

func TestDrainImmediateWhenIdle(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	task, _ := openChannel(t, e, k)
	start := e.Now()
	took := sim.Duration(-1)
	k.DrainOn(e.NewCont(), []*Task{task}, func() { took = e.Now().Sub(start) })
	e.RunFor(time.Millisecond)
	if took < 0 || took > 100*time.Microsecond {
		t.Fatalf("idle drain took %v; should complete immediately", took)
	}
}

// The drain ends in the instant its task's last request is observed
// complete, so a timeslice charges that instant's distance past the
// slice's deadline as overuse.
func TestDrainOveruseCharge(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		r := cs.Ch.Stage(2*time.Millisecond, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
	})
	var deadline sim.Time
	over := sim.Duration(-1)
	c := e.NewCont()
	c.Sleep(100*time.Microsecond, func() {
		deadline = e.Now() // pretend the slice ended now
		k.DrainOn(c, []*Task{task}, func() { over = e.Now().Sub(deadline) })
	})
	e.RunFor(10 * time.Millisecond)
	// The request runs ~1.9ms past the deadline.
	if over < 1800*time.Microsecond || over > 2*time.Millisecond+2*k.Costs().PollInterval {
		t.Fatalf("overuse = %v, want ~1.9ms", over)
	}
}

func TestDrainKillsHungTask(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	k.RequestRunLimit = 5 * time.Millisecond
	attacker, acs := openChannel(t, e, k)
	victim, vcs := openChannel(t, e, k)
	attacker.Go("attack", func(p *sim.Proc) {
		r := acs.Ch.Stage(gpu.Forever, gpu.Compute)
		acs.Ch.Reg.Store(p, r.Ref)
	})
	victim.Go("work", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		r := vcs.Ch.Stage(10*time.Microsecond, gpu.Compute)
		vcs.Ch.Reg.Store(p, r.Ref)
	})
	drained := false
	c := e.NewCont()
	c.Sleep(time.Millisecond, func() {
		k.DrainOn(c, []*Task{attacker, victim}, func() { drained = true })
	})
	e.RunFor(100 * time.Millisecond)
	if attacker.Alive {
		t.Fatal("hung task not killed")
	}
	if !victim.Alive {
		t.Fatal("innocent task killed")
	}
	if !drained {
		t.Fatal("drain never completed after the kill")
	}
	if k.Kills != 1 {
		t.Fatalf("Kills = %d", k.Kills)
	}
}

func TestSampleMeasuresServiceTimes(t *testing.T) {
	sched := &recordingSched{engageAll: true}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		for i := 0; i < 100 && task.Alive; i++ {
			r := cs.Ch.Stage(50*time.Microsecond, gpu.Compute)
			cs.Ch.Reg.Store(p, r.Ref)
			p.Wait(r.DoneGate())
		}
	})
	var res SampleResult
	k.SampleOn(e.NewCont(), task, 5*time.Millisecond, 8, func(r SampleResult) { res = r })
	e.RunFor(20 * time.Millisecond)
	if res.Requests != 8 {
		t.Fatalf("sampled %d requests, want 8 (early stop)", res.Requests)
	}
	if res.Elapsed >= 5*time.Millisecond {
		t.Fatalf("Elapsed = %v; the run should stop at its 8th request", res.Elapsed)
	}
	if res.Mean() != 50*time.Microsecond {
		t.Fatalf("mean = %v, want 50us", res.Mean())
	}
}

func TestSampleTimesOutOnIdleTask(t *testing.T) {
	sched := &recordingSched{engageAll: true}
	e, _, k := testKernel(t, sched)
	task, _ := openChannel(t, e, k)
	res := SampleResult{Requests: -1}
	k.SampleOn(e.NewCont(), task, 2*time.Millisecond, 8, func(r SampleResult) { res = r })
	e.RunFor(10 * time.Millisecond)
	if res.Requests != 0 {
		t.Fatalf("sampled %d from an idle task", res.Requests)
	}
	if res.Elapsed != 2*time.Millisecond {
		t.Fatalf("Elapsed = %v, want the full window", res.Elapsed)
	}
	if res.Mean() != 0 {
		t.Fatal("mean of nothing should be 0")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d live", e.LiveProcs())
	}
}

func TestKillTaskCleansUp(t *testing.T) {
	sched := &recordingSched{}
	e, d, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		r := cs.Ch.Stage(gpu.Forever, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
		p.Sleep(time.Hour)
		t.Error("killed task kept running")
	})
	e.RunFor(time.Millisecond)
	k.KillTask(task, "test")
	e.RunFor(time.Millisecond)
	if task.Alive {
		t.Fatal("task still alive")
	}
	if task.ExitReason != "killed: test" {
		t.Fatalf("ExitReason = %q", task.ExitReason)
	}
	if d.ContextCount() != 0 {
		t.Fatal("contexts not freed")
	}
	if len(sched.exited) != 1 {
		t.Fatal("TaskExited not delivered")
	}
	if len(k.Tasks()) != 0 {
		t.Fatal("dead task still listed")
	}
	// Idempotent.
	k.KillTask(task, "again")
	if k.Kills != 1 {
		t.Fatalf("Kills = %d after double kill", k.Kills)
	}
}

func TestVoluntaryExit(t *testing.T) {
	sched := &recordingSched{}
	e, d, k := testKernel(t, sched)
	task, _ := openChannel(t, e, k)
	task.Exit()
	e.RunFor(time.Millisecond)
	if task.Alive || task.ExitReason != "exited" {
		t.Fatalf("alive=%v reason=%q", task.Alive, task.ExitReason)
	}
	if d.ContextCount() != 0 {
		t.Fatal("contexts not freed on exit")
	}
	if k.Kills != 0 {
		t.Fatal("voluntary exit counted as kill")
	}
}

func TestChannelPolicyQuotas(t *testing.T) {
	sched := &recordingSched{}
	e, _, k := testKernel(t, sched)
	k.Policy = &ChannelPolicy{MaxChannelsPerTask: 2, MaxTasks: 1}
	hog := k.NewTask("hog")
	second := k.NewTask("second")
	var hogErr, secondErr error
	hog.Go("main", func(p *sim.Proc) {
		ctx, _ := k.CreateContext(p, hog, "c")
		if _, err := k.CreateChannel(p, hog, ctx, gpu.Compute); err != nil {
			hogErr = err
			return
		}
		if _, err := k.CreateChannel(p, hog, ctx, gpu.DMA); err != nil {
			hogErr = err
			return
		}
		_, hogErr = k.CreateChannel(p, hog, ctx, gpu.Compute) // third: over quota
	})
	e.RunFor(time.Millisecond)
	second.Go("main", func(p *sim.Proc) {
		_, secondErr = k.CreateContext(p, second, "c")
	})
	e.RunFor(time.Millisecond)
	if hogErr != ErrChannelQuota {
		t.Fatalf("hog's third channel err = %v, want quota", hogErr)
	}
	if secondErr != ErrChannelQuota {
		t.Fatalf("second task's context err = %v, want quota (MaxTasks=1)", secondErr)
	}
}

func TestBlockedFaultDelaysSubmission(t *testing.T) {
	sched := &recordingSched{engageAll: true, blockers: map[*Task]bool{}}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	sched.blockers[task] = true
	var r *gpu.Request
	task.Go("work", func(p *sim.Proc) {
		r = cs.Ch.Stage(10*time.Microsecond, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
	})
	e.RunFor(5 * time.Millisecond)
	if r.IsDone() {
		t.Fatal("blocked submission reached the device")
	}
	sched.blockers[task] = false
	task.Gate().Broadcast()
	e.RunFor(5 * time.Millisecond)
	if !r.IsDone() {
		t.Fatal("released submission never completed")
	}
}

func TestMMIOWriteTypeVisible(t *testing.T) {
	// Compile-time sanity: the kernel handler signature matches mmio.
	var h mmio.FaultHandler = (&Kernel{}).onFault
	_ = h
}

// faultStage names a point inside one fault: the trap, the handler's
// scan, or the wait for the scheduler's admission.
type faultStage struct {
	name string
	at   func(c cost.Model) sim.Duration // offset from the store
}

var faultStages = []faultStage{
	{"trap", func(c cost.Model) sim.Duration { return c.FaultTrap / 2 }},
	{"scan", func(c cost.Model) sim.Duration { return c.FaultTrap + c.FaultScan/2 }},
	{"scheduler wait", func(c cost.Model) sim.Duration { return c.FaultTrap + c.FaultScan + 5*time.Microsecond }},
}

// TestKillDuringFaultWrapper is the kill rule for a proc parked in the
// blocking store wrapper: killing the task at each stage of the fault
// cancels the rest of it. No store reaches the device, the handler
// counts the fault only once it has run, nothing stays queued on the
// task's gate, and no wake-up of the fault outlives the kill.
func TestKillDuringFaultWrapper(t *testing.T) {
	for _, st := range faultStages {
		sched := &recordingSched{engageAll: true, blockers: map[*Task]bool{}}
		e, _, k := testKernel(t, sched)
		task, cs := openChannel(t, e, k)
		sched.blockers[task] = true
		var r *gpu.Request
		task.Go("work", func(p *sim.Proc) {
			r = cs.Ch.Stage(10*time.Microsecond, gpu.Compute)
			cs.Ch.Reg.Store(p, r.Ref)
			t.Errorf("%s: killed proc returned from its store", st.name)
		})
		killAt := e.Now().Add(st.at(k.Costs()))
		queued := -1
		e.Schedule(killAt, func() {
			k.KillTask(task, "test")
			queued = e.Pending()
		})
		e.Run()
		// The one event the kill leaves is the proc's own unwinding.
		checkKilledFault(t, st.name, e, k, task, cs, r, killAt, queued, 1)
		if e.LiveProcs() != 0 {
			t.Errorf("%s: %d live procs", st.name, e.LiveProcs())
		}
	}
}

// checkKilledFault asserts what a fault cancelled by its task's death
// must leave behind: nothing. queued is the engine's pending-event count
// right after the kill, of which want belong to the killed thread
// itself; none may belong to the fault.
func checkKilledFault(t *testing.T, stage string, e *sim.Engine, k *Kernel, task *Task, cs *ChannelState, r *gpu.Request, killAt sim.Time, queued, want int) {
	t.Helper()
	if queued != want {
		t.Errorf("%s: %d events queued after the kill, want %d", stage, queued, want)
	}
	if e.Now() != killAt {
		t.Errorf("%s: a wake-up of the fault ran at %v, after the kill at %v", stage, e.Now(), killAt)
	}
	if r == nil || r.Submitted != 0 || cs.Ch.LastSubmittedRef != 0 {
		t.Errorf("%s: the store reached the device", stage)
	}
	handled := int64(1)
	if stage == "trap" {
		handled = 0 // the handler never ran
	}
	if cs.Ch.Reg.Faults != 1 || k.TotalFaults != handled || cs.Faults != handled {
		t.Errorf("%s: faults page/kernel/channel = %d/%d/%d, want 1/%d/%d",
			stage, cs.Ch.Reg.Faults, k.TotalFaults, cs.Faults, handled, handled)
	}
	if n := task.Gate().Waiters(); n != 0 {
		t.Errorf("%s: %d waiters left on the task gate", stage, n)
	}
}
