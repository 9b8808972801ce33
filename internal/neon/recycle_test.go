package neon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// quietSched admits everything, leaves every page present and records
// nothing, so a rig under it allocates only what the stack does.
type quietSched struct{}

func (quietSched) Name() string                   { return "quiet" }
func (quietSched) Start(*Kernel)                  {}
func (quietSched) TaskAdmitted(*Task)             {}
func (quietSched) TaskExited(*Task)               {}
func (quietSched) ChannelActivated(*ChannelState) {}

// reattachRig opens n virtual clients on a device with ctxs hardware
// contexts and returns a round that runs one submission per client, in
// turn, through the continuation forms (VContext.AcquireOn, then
// mmio.Page.StoreOn, Release, and a wait on the done gate). With
// n > ctxs every acquire of a round after the first reattaches.
func reattachRig(t *testing.T, sched Scheduler, ctxs, n int) (*Kernel, []*VContext, func()) {
	t.Helper()
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = ctxs
	k := NewKernel(gpu.New(e, cfg), sched)
	c := e.NewCont()
	vcs := make([]*VContext, n)
	for i := range vcs {
		task := k.NewTask(fmt.Sprintf("t%d", i))
		k.OpenVirtualOn(c, task, "v", []gpu.Kind{gpu.Compute}, func(vc *VContext, err error) {
			if err != nil {
				t.Fatalf("open t%d: %v", i, err)
			}
			vcs[i] = vc
		})
		e.Run()
	}

	var (
		i        int
		r        *gpu.Request
		step     func()
		acquired func(*gpu.Channel, error)
		stored   func()
		done     func()
	)
	acquired = func(ch *gpu.Channel, err error) {
		if err != nil {
			t.Fatalf("acquire t%d: %v", i, err)
		}
		r = ch.Stage(time.Microsecond, gpu.Compute)
		ch.Reg.StoreOn(c, r.Ref, stored)
	}
	stored = func() {
		vcs[i].Release()
		c.Wait(r.DoneGate(), done)
	}
	done = func() {
		if !r.IsDone() || r.Aborted {
			t.Fatalf("t%d: request not completed", i)
		}
		r.Release()
		i++
		step()
	}
	step = func() {
		if i < n {
			vcs[i].AcquireOn(c, gpu.Compute, acquired)
		}
	}
	return k, vcs, func() {
		i = 0
		step()
		e.Run()
	}
}

// TestReattachAllocatesNothing: once the hardware pool has warmed, a
// reattach reuses a released context, its channel, the channel's
// doorbell page and arrays, the channel state and the logical
// context's own attach record, so it allocates nothing.
func TestReattachAllocatesNothing(t *testing.T) {
	const ctxs, clients, rounds = 2, 8, 5
	k, _, round := reattachRig(t, quietSched{}, ctxs, clients)
	round() // warm-up: the pools and the records fill

	before := k.MuxStatus().Reattaches
	allocs := testing.AllocsPerRun(rounds, round)
	reattaches := k.MuxStatus().Reattaches - before
	if want := int64((rounds + 1) * clients); reattaches != want {
		t.Fatalf("%d reattaches over %d rounds of %d clients, want %d (every acquire)", reattaches, rounds+1, clients, want)
	}
	if per := allocs / clients; per != 0 {
		t.Errorf("a reattach allocates %.2f objects, want 0", per)
	}
}

// TestReattachedChannelReadsAsNew: the hardware state a reattach reuses
// reads as fresh — the next channel ID, zeroed counters, an empty ring
// and a page whose presence the scheduler's ChannelActivated set — and
// the task's BusyTime and CompletedRequests stay monotone across the
// detach and reattach.
func TestReattachedChannelReadsAsNew(t *testing.T) {
	sched := &recordingSched{}
	k, vcs, round := reattachRig(t, sched, 1, 2)
	a, b := vcs[0], vcs[1]
	round() // a runs attached, b evicts it for its first attach
	round() // a reattaches (evicting b), then b reattaches (evicting a)
	if a.Attached() || !b.Attached() {
		t.Fatalf("after a round: a attached %v, b attached %v", a.Attached(), b.Attached())
	}
	chB := b.chans[0].Ch
	oldID, oldGen := chB.ID, chB.Generation()
	busy, done := a.task.BusyTime(), a.task.CompletedRequests()
	if busy == 0 || done != 2 {
		t.Fatalf("a before: busy %v, %d completed", busy, done)
	}

	// The scheduler now engages every new channel: a's reattach must
	// come up engaged although b's page was present.
	sched.engageAll = true
	c := k.Engine().NewCont()
	var ch *gpu.Channel
	a.AcquireOn(c, gpu.Compute, func(got *gpu.Channel, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ch = got
	})
	k.Engine().Run()
	if ch != chB {
		t.Fatal("the reattach did not reuse the released channel")
	}
	if ch.ID <= oldID || ch.Generation() == oldGen {
		t.Errorf("reused channel: ID %d (was %d), generation %d (was %d)", ch.ID, oldID, ch.Generation(), oldGen)
	}
	if ch.RefCount != 0 || ch.LastSubmittedRef != 0 || ch.Completions != 0 || ch.Pending() != 0 || len(ch.StagedRequests()) != 0 {
		t.Errorf("reused channel reads ref %d, last %d, %d completions, %d pending, %d staged",
			ch.RefCount, ch.LastSubmittedRef, ch.Completions, ch.Pending(), len(ch.StagedRequests()))
	}
	if ch.Reg.Present() || ch.Reg.DirectWrites != 0 || ch.Reg.Faults != 0 {
		t.Errorf("reused page: present %v (the scheduler engaged it), %d writes, %d faults",
			ch.Reg.Present(), ch.Reg.DirectWrites, ch.Reg.Faults)
	}
	cs := a.task.Channels()[0]
	if cs.Ch != ch || cs.Task != a.task || cs.Faults != 0 || cs.sampling || cs.drainTarget != 0 || cs.vc != a {
		t.Errorf("reused channel state: %+v", *cs)
	}
	if got := a.task.BusyTime(); got != busy {
		t.Errorf("a's busy time went from %v to %v across the reattach", busy, got)
	}
	if got := a.task.CompletedRequests(); got != done {
		t.Errorf("a's completions went from %d to %d across the reattach", done, got)
	}
	a.Release()
}

// TestUnpinWithoutPinPanics: a Release with no Acquire behind it is a
// broken pin count, and it panics naming the task.
func TestUnpinWithoutPinPanics(t *testing.T) {
	_, vcs, round := reattachRig(t, quietSched{}, 1, 1)
	round()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("an unpin without a pin did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"t0"`) {
			t.Errorf("panic %q does not name the task", msg)
		}
	}()
	vcs[0].Release()
}

// TestEvictableCountDisagreementPanics: the evictable count stands in
// for a scan of the attached contexts. A count that disagrees with the
// table, here one evictable context on a device whose only context is
// pinned, would send a slot search after a victim that is not there,
// so the search panics naming the device.
func TestEvictableCountDisagreementPanics(t *testing.T) {
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.Name, cfg.MaxContexts = "gpu7", 1
	k := NewKernel(gpu.New(e, cfg), quietSched{})
	c := e.NewCont()
	open := func(name string) *VContext {
		var vc *VContext
		k.OpenVirtualOn(c, k.NewTask(name), "v", []gpu.Kind{gpu.Compute}, func(got *VContext, err error) {
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			vc = got
		})
		e.Run()
		return vc
	}
	held, waiting := open("held"), open("waiting")
	if _, ok := held.AcquireIf(gpu.Compute); !ok || waiting.Attached() {
		t.Fatalf("setup: held acquired %v, waiting attached %v", ok, waiting.Attached())
	}
	k.mux.evictable++ // the broken count
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a slot search with a broken evictable count did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"gpu7"`) {
			t.Errorf("panic %q does not name the device", msg)
		}
	}()
	waiting.AcquireOn(c, gpu.Compute, func(*gpu.Channel, error) {
		t.Error("the acquire went on past the broken count")
	})
}
