package neon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// muxKernel builds a kernel on a device with the given hardware-context
// pool size, under the permissive recording scheduler.
func muxKernel(t *testing.T, maxCtx int) (*sim.Engine, *gpu.Device, *Kernel) {
	t.Helper()
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = maxCtx
	d := gpu.New(e, cfg)
	return e, d, NewKernel(d, &recordingSched{})
}

// TestMuxHostsStormPastContextCap is the tentpole acceptance test at
// the neon layer: 10^4 logical contexts — 200x the hardware pool — all
// simultaneously open on one 48-context device, every one submitting
// real requests through attach/evict/reattach cycles. Every submission
// must complete, no open or acquire may ever surface ErrNoContexts, and
// the attached high-water mark must respect the hardware cap.
func TestMuxHostsStormPastContextCap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10^4-task storm (~seconds)")
	}
	const tasks = 10_000
	e, d, k := muxKernel(t, 48)

	var completed int64
	var errs []error
	for i := 0; i < tasks; i++ {
		i := i
		task := k.NewTask(fmt.Sprintf("t%d", i))
		task.Go("storm", func(p *sim.Proc) {
			// Stagger starts so arrival pressure is a front, not a spike.
			p.Sleep(sim.Duration(i) * 100)
			vc, err := k.OpenVirtual(p, task, "v", gpu.Compute)
			if err != nil {
				errs = append(errs, fmt.Errorf("open t%d: %w", i, err))
				return
			}
			for rep := 0; rep < 2; rep++ {
				ch, err := vc.Acquire(p, gpu.Compute)
				if err != nil {
					errs = append(errs, fmt.Errorf("acquire t%d rep %d: %w", i, rep, err))
					return
				}
				r := ch.Stage(time.Microsecond, gpu.Compute)
				ch.Reg.Store(p, r.Ref)
				vc.Release()
				p.Wait(r.DoneGate())
				completed++
				// Idle long enough to be evicted by the rest of the storm,
				// so the second round reattaches.
				p.Sleep(5 * time.Millisecond)
			}
		})
	}
	e.RunFor(time.Second)

	for _, err := range errs {
		t.Error(err)
	}
	if completed != 2*tasks {
		t.Fatalf("completed %d submissions, want %d", completed, 2*tasks)
	}
	st := k.MuxStatus()
	if st.Opens != tasks {
		t.Errorf("opens = %d, want %d", st.Opens, tasks)
	}
	if st.MaxAttached > 48 {
		t.Errorf("attached high-water mark %d exceeds the 48-context pool", st.MaxAttached)
	}
	if d.ContextCount() > 48 {
		t.Errorf("device holds %d hardware contexts, cap 48", d.ContextCount())
	}
	if st.Reattaches == 0 || st.Evictions == 0 {
		t.Errorf("storm never cycled the pool: %d reattaches, %d evictions", st.Reattaches, st.Evictions)
	}
	if got := len(k.Tasks()); got != tasks {
		t.Errorf("%d live tasks at end, want %d — the population must stay hosted", got, tasks)
	}
}

// TestMuxKillMidBacklogRecyclesSlot kills a task whose hardware context
// holds a deep request backlog while another logical context is queued
// waiting for a slot. The exit protocol must abort the backlog, the
// freed slot must be granted to the waiter, and the mux bookkeeping
// (waiter queue, reserved slots) must come out clean.
func TestMuxKillMidBacklogRecyclesSlot(t *testing.T) {
	e, d, k := muxKernel(t, 2)

	// A and B fill the two-slot pool with multi-request backlogs.
	busy := func(name string) *Task {
		task := k.NewTask(name)
		task.Go("fill", func(p *sim.Proc) {
			vc, err := k.OpenVirtual(p, task, name, gpu.Compute)
			if err != nil {
				t.Errorf("open %s: %v", name, err)
				return
			}
			ch, err := vc.Acquire(p, gpu.Compute)
			if err != nil {
				t.Errorf("acquire %s: %v", name, err)
				return
			}
			for i := 0; i < 3; i++ {
				r := ch.Stage(5*time.Millisecond, gpu.Compute)
				ch.Reg.Store(p, r.Ref)
			}
			vc.Release()
		})
		return task
	}
	a := busy("a")
	busy("b")
	e.RunFor(time.Millisecond)

	// C arrives with both slots held by non-idle contexts: its attach
	// must queue, not fail.
	cDone := false
	c := k.NewTask("c")
	c.Go("wait", func(p *sim.Proc) {
		vc, err := k.OpenVirtual(p, c, "c", gpu.Compute)
		if err != nil {
			t.Errorf("open c: %v", err)
			return
		}
		ch, err := vc.Acquire(p, gpu.Compute)
		if err != nil {
			t.Errorf("acquire c: %v", err)
			return
		}
		r := ch.Stage(time.Microsecond, gpu.Compute)
		ch.Reg.Store(p, r.Ref)
		vc.Release()
		p.Wait(r.DoneGate())
		cDone = true
	})
	e.RunFor(time.Millisecond)
	if cDone {
		t.Fatal("c ran before a slot was free; the backlogs did not hold the pool")
	}
	if st := k.MuxStatus(); st.AttachWaits == 0 {
		t.Fatal("c's attach did not queue")
	}

	// Kill A mid-backlog: two of its three 5 ms requests are still
	// queued. The slot must recycle to C.
	k.KillTask(a, "test")
	// B's surviving backlog (~15 ms) still occupies the shared exec
	// engine; C's request completes behind it.
	e.RunFor(30 * time.Millisecond)
	if a.Alive {
		t.Fatal("killed task still alive")
	}
	if !cDone {
		t.Fatal("c never got the killed task's slot")
	}
	if d.ContextCount() > 2 {
		t.Fatalf("device holds %d contexts, cap 2", d.ContextCount())
	}
	if n := len(k.mux.waiters); n != 0 {
		t.Errorf("%d waiters left queued", n)
	}
	if k.mux.reserved != 0 {
		t.Errorf("%d slots left reserved", k.mux.reserved)
	}
}

// TestSecondAcquireInFlightPanics: a logical context has one acquire
// or eager open in flight at a time. On a one-context device whose slot
// a pinned task holds, the victim's first acquire queues for the slot;
// a second acquire of the same context, from another lane, is a
// caller's bug and panics naming the task and the context.
func TestSecondAcquireInFlightPanics(t *testing.T) {
	e, _, k := muxKernel(t, 1)
	open := func(name, label string) *VContext {
		var vc *VContext
		task := k.NewTask(name)
		k.OpenVirtualOn(task.NewCont(), task, label, []gpu.Kind{gpu.Compute}, func(v *VContext, err error) {
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			vc = v
		})
		e.Run()
		return vc
	}
	hog := open("hog", "h")
	hog.AcquireOn(hog.task.NewCont(), gpu.Compute, func(_ *gpu.Channel, err error) {
		if err != nil {
			t.Fatalf("hog acquire: %v", err)
		}
	})
	victim := open("victim", "vctx")
	victim.AcquireOn(victim.task.NewCont(), gpu.Compute, func(*gpu.Channel, error) {
		t.Error("the victim's first acquire finished while the hog held the only slot")
	})
	e.Run()
	if n := k.MuxStatus().Waiting; n != 1 || victim.Attached() {
		t.Fatalf("%d attaches waiting, victim attached %v; want the victim's first acquire queued", n, victim.Attached())
	}

	r := func() (r any) {
		defer func() { r = recover() }()
		victim.AcquireOn(victim.task.NewCont(), gpu.Compute, func(*gpu.Channel, error) {})
		return nil
	}()
	if r == nil {
		t.Fatal("a second acquire while the first was queued did not panic")
	}
	for _, want := range []string{`"victim"`, `"vctx"`} {
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name %s", msg, want)
		}
	}
}

// TestMuxTightPoolStorm hammers the FIFO waiter machinery: 300 logical
// contexts on a 4-context pool, three submission rounds each. The point
// is that ErrNoContexts is unreachable through the mux no matter how
// oversubscribed the pool gets — exhaustion means waiting, not failing.
func TestMuxTightPoolStorm(t *testing.T) {
	const tasks = 300
	e, _, k := muxKernel(t, 4)

	var completed int64
	var errs []error
	for i := 0; i < tasks; i++ {
		i := i
		task := k.NewTask(fmt.Sprintf("t%d", i))
		task.Go("storm", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * sim.Duration(time.Microsecond))
			vc, err := k.OpenVirtual(p, task, "v", gpu.Compute)
			if err != nil {
				errs = append(errs, fmt.Errorf("open t%d: %w", i, err))
				return
			}
			for rep := 0; rep < 3; rep++ {
				ch, err := vc.Acquire(p, gpu.Compute)
				if err != nil {
					errs = append(errs, fmt.Errorf("acquire t%d rep %d: %w", i, rep, err))
					return
				}
				r := ch.Stage(sim.Duration(1+i%3)*sim.Duration(time.Microsecond), gpu.Compute)
				ch.Reg.Store(p, r.Ref)
				vc.Release()
				p.Wait(r.DoneGate())
				completed++
				p.Sleep(time.Millisecond)
			}
		})
	}
	e.RunFor(100 * time.Millisecond)

	for _, err := range errs {
		t.Error(err)
	}
	if completed != 3*tasks {
		t.Fatalf("completed %d submissions, want %d", completed, 3*tasks)
	}
	if st := k.MuxStatus(); st.MaxAttached > 4 {
		t.Errorf("attached high-water mark %d exceeds the 4-context pool", st.MaxAttached)
	}
}

// TestKillMidAttachStopsAcquire kills a task whose process is parked in
// the blocking Acquire, a Proc.Await wrapper over the continuation
// attach, at each point an attach can park: (a) waiting in the attach
// FIFO, (b) sleeping the context or channel setup syscall of a
// reattach, (c) sleeping the reattach's ContextSwitch. Task exit kills
// the process, which stops the chain: no step of the dead attach runs
// later, nothing waits on the gate or in the mux queue, no slot stays
// reserved, and the context ends closed rather than attaching.
func TestKillMidAttachStopsAcquire(t *testing.T) {
	for _, tc := range []struct {
		name string
		hog  bool // the hog keeps the only slot pinned
		at   func(k *Kernel, vc *VContext) bool
	}{
		{"a-attach-fifo", true, func(k *Kernel, _ *VContext) bool { return len(k.mux.waiters) == 1 }},
		{"b-context-syscall", false, func(k *Kernel, _ *VContext) bool { return k.mux.stats.Evictions == 2 }},
		{"b-channel-syscall", false, func(_ *Kernel, vc *VContext) bool { return len(vc.task.contexts) == 1 }},
		{"c-context-switch", false, func(k *Kernel, _ *VContext) bool { return k.mux.stats.Reattaches == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d, k := muxKernel(t, 1)
			again := e.NewGate("again")
			var vc *VContext
			var second error
			victim := k.NewTask("victim")
			vp := victim.Go("main", func(p *sim.Proc) {
				var err error
				if vc, err = k.OpenVirtual(p, victim, "v", gpu.Compute); err != nil {
					t.Errorf("open: %v", err)
					return
				}
				p.Wait(again)
				_, second = vc.Acquire(p, gpu.Compute)
				t.Error("the killed process ran past its Acquire")
			})
			e.RunFor(time.Millisecond)

			// The hog evicts the victim's idle context, then holds the only
			// slot pinned (a) or leaves it idle to be evicted back (b, c).
			hold := e.NewGate("hold")
			hog := k.NewTask("hog")
			hog.Go("main", func(p *sim.Proc) {
				hvc, err := k.OpenVirtual(p, hog, "h", gpu.Compute)
				if err != nil {
					t.Errorf("hog open: %v", err)
					return
				}
				if _, err := hvc.Acquire(p, gpu.Compute); err != nil {
					t.Errorf("hog acquire: %v", err)
					return
				}
				if tc.hog {
					p.Wait(hold)
				}
				hvc.Release()
			})
			e.RunFor(time.Millisecond)
			if vc == nil || vc.Attached() || k.mux.stats.Evictions != 1 {
				t.Fatalf("setup: victim attached %v, %d evictions", vc != nil && vc.Attached(), k.mux.stats.Evictions)
			}

			again.Signal()
			for !tc.at(k, vc) {
				if !e.Step() {
					t.Fatal("the attach never reached the kill point")
				}
			}
			attaches := k.mux.stats.Attaches
			k.KillTask(victim, "test: die mid-attach")
			e.Run()

			if !vp.Finished() || second != nil {
				t.Errorf("victim finished %v, acquire returned %v", vp.Finished(), second)
			}
			if n := victim.Gate().Waiters(); n != 0 {
				t.Errorf("%d waiters left on the dead task's gate", n)
			}
			if len(k.mux.waiters) != 0 || k.mux.reserved != 0 {
				t.Errorf("%d attaches queued and %d slots reserved after the kill, want none", len(k.mux.waiters), k.mux.reserved)
			}
			if vc.task.Alive || vc.opBusy || vc.Attached() {
				t.Errorf("context's task alive %v, attaching %v, attached %v; want a dead task only", vc.task.Alive, vc.opBusy, vc.Attached())
			}
			if k.mux.stats.Attaches != attaches || e.Pending() != 0 {
				t.Errorf("the dead attach went on: %d attaches (was %d), %d events pending", k.mux.stats.Attaches, attaches, e.Pending())
			}
			want := 0
			if tc.hog {
				want = 1
			}
			if n := d.ContextCount(); n != want {
				t.Errorf("device holds %d contexts, want %d (the hog's only)", n, want)
			}
		})
	}
}
