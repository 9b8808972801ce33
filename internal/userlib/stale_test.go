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

// TestStaleChannelPanicsAtStore keeps a submission record's channel
// across the virtual context's Release, as a broken pin count would,
// then forces the context's eviction and another task's attach, which
// reuses the released channel. The record's store step must refuse to
// ring the other task's doorbell: the generation check panics naming
// the task whose record went stale.
func TestStaleChannelPanicsAtStore(t *testing.T) {
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = 1
	k := neon.NewKernel(gpu.New(e, cfg), passthrough{})
	open := func(name string) *Client {
		task := k.NewTask(name)
		var c *Client
		OpenVirtualOn(e.NewCont(), k, task, name, []gpu.Kind{gpu.Compute}, func(got *Client, err error) {
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			c = got
		})
		e.Run()
		return c
	}
	a, b := open("victim"), open("other")
	if !a.VC.Attached() || b.VC.Attached() {
		t.Fatalf("setup: victim attached %v, other attached %v", a.VC.Attached(), b.VC.Attached())
	}

	ch, ok := a.VC.AcquireIf(gpu.Compute)
	if !ok {
		t.Fatal("acquire refused")
	}
	s := a.submission()
	s.lane, s.kind, s.size, s.mode = e.NewCont(), gpu.Compute, time.Microsecond, subDetached
	s.ch, s.gen = ch, ch.Generation() // what acquired records
	a.VC.Release()                    // the record outlives the pin

	var got *gpu.Request
	b.SubmitSyncOn(e.NewCont(), gpu.Compute, time.Microsecond, nil, func(r *gpu.Request) { got = r })
	e.Run()
	if got == nil || a.VC.Attached() || b.peek(gpu.Compute) != ch {
		t.Fatalf("other's submission %v, victim attached %v, channel reused %v",
			got != nil, a.VC.Attached(), b.peek(gpu.Compute) == ch)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a store through a stale channel did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"victim"`) {
			t.Errorf("panic %q does not name the task", msg)
		}
		if n := ch.Reg.DirectWrites + ch.Reg.Faults; n != 1 {
			t.Errorf("the other task's page saw %d stores, want its own 1", n)
		}
	}()
	s.trapped()
}
