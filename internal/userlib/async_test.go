package userlib

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// TestSubmitAsyncZeroHandoff: the callback path completes a request with
// the continuation firing in engine context — no process ever waits —
// and the doorbell reaches the device a DirectWrite after staging,
// exactly when a blocking store's sleep would have delivered it.
func TestSubmitAsyncZeroHandoff(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	var c *Client
	task.Go("main", func(p *sim.Proc) { c, _ = Open(p, k, task, "t", gpu.Compute) })
	e.RunFor(time.Millisecond)
	if c == nil {
		t.Fatal("Open never finished")
	}

	var done *gpu.Request
	var doneAt sim.Time
	start := e.Now()
	r, ok := c.SubmitAsync(e, gpu.Compute, 40*time.Microsecond, func(r *gpu.Request) {
		done = r
		doneAt = e.Now()
	})
	if !ok || r == nil {
		t.Fatal("SubmitAsync refused on a direct-mapped channel")
	}
	e.RunFor(time.Millisecond)
	if done != r {
		t.Fatal("continuation never fired")
	}
	want := start.Add(k.Costs().DirectWrite + k.Costs().ContextSwitch + 40*time.Microsecond)
	if doneAt != want {
		t.Fatalf("completed at %v, want %v (doorbell + context switch + execution)", doneAt, want)
	}
}

// TestSubmitAsyncRefusesEngagedChannel: with the channel register
// engaged (non-present page), the async fast path must refuse without
// staging anything, and the blocking fallback must charge the fault
// trap and block the submitting process through the fault path — the
// interposition engaged schedulers depend on.
func TestSubmitAsyncRefusesEngagedChannel(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	task.Go("main", func(p *sim.Proc) {
		c, _ := Open(p, k, task, "t", gpu.Compute)
		c.SubmitSync(p, gpu.Compute, 10*time.Microsecond) // absorb first context switch
		reg := c.peek(gpu.Compute).Reg
		reg.SetPresent(false)

		faultsBefore, writesBefore := reg.Faults, reg.DirectWrites
		if _, ok := c.SubmitAsync(e, gpu.Compute, 10*time.Microsecond, nil); ok {
			t.Error("SubmitAsync accepted an engaged channel")
		}
		if reg.Faults != faultsBefore || reg.DirectWrites != writesBefore {
			t.Error("refused SubmitAsync touched the register page")
		}
		if !c.Engaged(gpu.Compute) {
			t.Error("Engaged = false on a non-present register")
		}

		start := p.Now()
		r := c.SubmitSync(p, gpu.Compute, 10*time.Microsecond)
		if r == nil || !r.IsDone() {
			t.Fatal("blocking fallback did not complete the request")
		}
		if reg.Faults != faultsBefore+1 {
			t.Errorf("Faults = %d, want %d: fallback must take the fault path", reg.Faults, faultsBefore+1)
		}
		if blocked := p.Now().Sub(start); blocked < k.Costs().FaultTrap+10*time.Microsecond {
			t.Errorf("fallback blocked %v, want at least fault trap + execution", blocked)
		}
	})
	e.RunFor(time.Millisecond)
}

// TestSubmitAsyncRefusesTrapPerRequest: trap-per-request mode has no
// user-space fast path at all; SubmitAsync must refuse and the blocking
// path must still charge the per-request syscall trap and block.
func TestSubmitAsyncRefusesTrapPerRequest(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	task.Go("main", func(p *sim.Proc) {
		c, _ := Open(p, k, task, "t", gpu.Compute)
		c.SubmitSync(p, gpu.Compute, 10*time.Microsecond) // absorb first context switch
		c.TrapPerRequest = true
		if _, ok := c.SubmitAsync(e, gpu.Compute, 10*time.Microsecond, nil); ok {
			t.Error("SubmitAsync accepted in trap-per-request mode")
		}
		if c.Engaged(gpu.Compute) {
			t.Error("Engaged = true in trap mode: the refusal is not an engagement")
		}
		start := p.Now()
		if r := c.SubmitSync(p, gpu.Compute, 10*time.Microsecond); r == nil || !r.IsDone() {
			t.Fatal("trap-mode submission did not complete")
		}
		want := k.Costs().SyscallTrap + k.Costs().DirectWrite + 10*time.Microsecond
		if blocked := p.Now().Sub(start); blocked != want {
			t.Errorf("trap-mode submission blocked %v, want %v", blocked, want)
		}
	})
	e.RunFor(time.Millisecond)
}

// TestSubmitEngagedOnCommitsFault: a submission that observed the
// register engaged must replay the fault even if the scheduler
// disengaged the page before its lane runs — the committed-fault rule
// that keeps continuation machines byte-identical with the atomic
// blocking store's check-then-fault — on raw and virtual clients alike.
func TestSubmitEngagedOnCommitsFault(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		e, k := stack(t)
		task := k.NewTask("t")
		task.Go("main", func(p *sim.Proc) {
			open := Open
			if virtual {
				open = OpenVirtual
			}
			c, _ := open(p, k, task, "t", gpu.Compute)
			c.SubmitSync(p, gpu.Compute, 10*time.Microsecond)
			reg := c.peek(gpu.Compute).Reg

			// The machine observes the engagement at the refusal instant...
			reg.SetPresent(false)
			if _, ok := c.SubmitAsync(e, gpu.Compute, 10*time.Microsecond, nil); ok {
				t.Fatal("SubmitAsync accepted an engaged channel")
			}
			if !c.Engaged(gpu.Compute) {
				t.Fatal("Engaged = false at the refusal instant")
			}
			// ...hands the submission to its lane, and the scheduler
			// disengages before the lane runs.
			faultsBefore, start := reg.Faults, p.Now()
			lane, landed := task.NewCont(), e.NewGate("landed")
			var r *gpu.Request
			hooked := 0
			lane.Yield(func() {
				c.SubmitEngagedOn(lane, gpu.Compute, 10*time.Microsecond,
					func(*gpu.Request) { hooked++ },
					func(x *gpu.Request) { r = x; landed.Open() })
			})
			reg.SetPresent(true)
			p.Wait(landed)
			if r == nil {
				t.Fatalf("virtual=%v: SubmitEngagedOn staged nothing", virtual)
			}
			if reg.Faults != faultsBefore+1 {
				t.Errorf("virtual=%v: Faults = %d, want %d: the committed fault must replay", virtual, reg.Faults, faultsBefore+1)
			}
			if blocked := p.Now().Sub(start); blocked < k.Costs().FaultTrap {
				t.Errorf("virtual=%v: the store landed after %v, want at least the fault trap %v", virtual, blocked, k.Costs().FaultTrap)
			}
			p.Wait(r.DoneGate())
			if hooked != 1 {
				t.Errorf("virtual=%v: the completion hook ran %d times, want 1", virtual, hooked)
			}
		})
		e.RunFor(time.Millisecond)
	}
}
