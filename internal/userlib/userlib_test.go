package userlib

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

type passthrough struct{}

func (passthrough) Name() string                           { return "pass" }
func (passthrough) Start(*neon.Kernel)                     {}
func (passthrough) TaskAdmitted(*neon.Task)                {}
func (passthrough) TaskExited(*neon.Task)                  {}
func (passthrough) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(true) }

func stack(t *testing.T) (*sim.Engine, *neon.Kernel) {
	t.Helper()
	e := sim.NewEngine()
	d := gpu.New(e, gpu.DefaultConfig())
	return e, neon.NewKernel(d, passthrough{})
}

func TestOpenCreatesChannelsInOrder(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	var c *Client
	task.Go("main", func(p *sim.Proc) {
		var err error
		c, err = Open(p, k, task, "t", gpu.Compute, gpu.Graphics)
		if err != nil {
			t.Errorf("Open: %v", err)
		}
	})
	e.RunFor(time.Millisecond)
	if c == nil {
		t.Fatal("Open never finished")
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] != gpu.Compute || kinds[1] != gpu.Graphics {
		t.Fatalf("Kinds = %v", kinds)
	}
	if c.peek(gpu.Compute) == nil || c.peek(gpu.Graphics) == nil {
		t.Fatal("channels missing")
	}
	if c.peek(gpu.DMA) != nil {
		t.Fatal("unrequested channel present")
	}
}

func TestOpenPaysSetupCosts(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	var took sim.Duration
	task.Go("main", func(p *sim.Proc) {
		start := p.Now()
		if _, err := Open(p, k, task, "t", gpu.Compute); err != nil {
			t.Errorf("Open: %v", err)
		}
		took = p.Now().Sub(start)
	})
	e.RunFor(time.Millisecond)
	perSyscall := k.Costs().SyscallTrap + k.Costs().SyscallDriverWork
	if took != 2*perSyscall { // context + one channel
		t.Fatalf("setup took %v, want %v", took, 2*perSyscall)
	}
}

func TestSubmitSyncRoundTrip(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	var r *gpu.Request
	var elapsed sim.Duration
	task.Go("main", func(p *sim.Proc) {
		c, _ := Open(p, k, task, "t", gpu.Compute)
		start := p.Now()
		r = c.SubmitSync(p, gpu.Compute, 40*time.Microsecond)
		elapsed = p.Now().Sub(start)
	})
	e.RunFor(time.Millisecond)
	if r == nil || !r.IsDone() {
		t.Fatal("request not completed")
	}
	// Submit cost + context switch + execution.
	want := k.Costs().DirectWrite + k.Costs().ContextSwitch + 40*time.Microsecond
	if elapsed != want {
		t.Fatalf("round trip %v, want %v", elapsed, want)
	}
}

func TestTrapPerRequestPaysSyscall(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("t")
	var direct, trap, heavy sim.Duration
	task.Go("main", func(p *sim.Proc) {
		c, _ := Open(p, k, task, "t", gpu.Compute)
		measure := func() sim.Duration {
			start := p.Now()
			c.SubmitSync(p, gpu.Compute, 10*time.Microsecond)
			return p.Now().Sub(start)
		}
		measure() // warm up: absorb the initial GPU context switch
		direct = measure()
		c.TrapPerRequest = true
		trap = measure()
		c.TrapDriverWork = true
		heavy = measure()
	})
	e.RunFor(time.Millisecond)
	if trap-direct != k.Costs().SyscallTrap {
		t.Fatalf("trap overhead = %v, want %v", trap-direct, k.Costs().SyscallTrap)
	}
	if heavy-trap != k.Costs().SyscallDriverWork {
		t.Fatalf("driver overhead = %v, want %v", heavy-trap, k.Costs().SyscallDriverWork)
	}
}

func TestOpenFailsOverQuota(t *testing.T) {
	e, k := stack(t)
	k.Policy = &neon.ChannelPolicy{MaxChannelsPerTask: 1, MaxTasks: 10}
	task := k.NewTask("t")
	var err error
	task.Go("main", func(p *sim.Proc) {
		_, err = Open(p, k, task, "t", gpu.Compute, gpu.Graphics)
	})
	e.RunFor(time.Millisecond)
	if err != neon.ErrChannelQuota {
		t.Fatalf("err = %v, want quota violation", err)
	}
}

// TestSecondSubmissionInFlightPanics: a client has one submission record
// and one lane submission in flight at a time, so a second lane
// submission while the first waits for its completion is a caller's bug,
// and it panics naming the task. Once the first has finished, the record
// serves the next submission.
func TestSecondSubmissionInFlightPanics(t *testing.T) {
	e, k := stack(t)
	task := k.NewTask("racer")
	lane := task.NewCont()
	var c *Client
	OpenOn(lane, k, task, "r", []gpu.Kind{gpu.Compute}, func(cl *Client, err error) {
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c = cl
	})
	e.Run()
	var first *gpu.Request
	c.SubmitSyncOn(lane, gpu.Compute, 40*time.Microsecond, nil, func(r *gpu.Request) { first = r })
	r := func() (r any) {
		defer func() { r = recover() }()
		c.SubmitDetachedOn(task.NewCont(), gpu.Compute, 40*time.Microsecond, nil, func(*gpu.Request) {})
		return nil
	}()
	if r == nil {
		t.Fatal("a second lane submission while the first was in flight did not panic")
	}
	if msg := fmt.Sprint(r); !strings.Contains(msg, `"racer"`) {
		t.Errorf("panic %q does not name the task", msg)
	}
	e.Run()
	if first == nil || !first.IsDone() {
		t.Fatal("the first submission never completed")
	}
	var second *gpu.Request
	c.SubmitSyncOn(lane, gpu.Compute, 40*time.Microsecond, nil, func(r *gpu.Request) { second = r })
	e.Run()
	if second == nil || !second.IsDone() {
		t.Fatal("the record did not serve a submission after the first finished")
	}
}
