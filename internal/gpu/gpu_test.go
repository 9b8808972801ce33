package gpu

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cost"
	"repro/internal/sim"
)

func testDev(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, DefaultConfig())
}

// TestNewFillsUnsetConfig: New fills every unset Config field from
// DefaultConfig, the cost model included, so a zero Config builds the
// default device.
func TestNewFillsUnsetConfig(t *testing.T) {
	got := New(sim.NewEngine(), Config{}).Config()
	if got.MaxContexts != 48 || got.GraphicsPenalty != 1 {
		t.Errorf("zero config reads %d contexts, penalty %d; want 48 and 1", got.MaxContexts, got.GraphicsPenalty)
	}
	if got.Costs != cost.Default() {
		t.Errorf("zero config reads cost model %+v, want cost.Default()", got.Costs)
	}
}

// submit stages a request and rings the doorbell from a helper process.
func submit(e *sim.Engine, ch *Channel, size sim.Duration, kind Kind) *Request {
	r := ch.Stage(size, kind)
	e.Spawn("submit", func(p *sim.Proc) { ch.Reg.Store(p, r.Ref) })
	return r
}

func mustCtx(t *testing.T, d *Device, owner TaskID) *Context {
	t.Helper()
	c, err := d.CreateContext(owner, "t")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustChan(t *testing.T, d *Device, c *Context, k Kind) *Channel {
	t.Helper()
	ch, err := d.CreateChannel(c, k)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestSingleRequestCompletes(t *testing.T) {
	e, d := testDev(t)
	ctx := mustCtx(t, d, 1)
	ch := mustChan(t, d, ctx, Compute)
	r := submit(e, ch, 100*time.Microsecond, Compute)
	e.Run()
	if !r.IsDone() || r.Aborted {
		t.Fatal("request did not complete")
	}
	if got := r.Completed.Sub(r.Started); got != 100*time.Microsecond {
		t.Fatalf("service time %v, want 100us", got)
	}
	if ch.RefCount != r.Ref {
		t.Fatalf("RefCount = %d, want %d", ch.RefCount, r.Ref)
	}
	if ch.Completions != 1 {
		t.Fatalf("Completions = %d", ch.Completions)
	}
}

func TestInOrderProcessingPerChannel(t *testing.T) {
	e, d := testDev(t)
	ctx := mustCtx(t, d, 1)
	ch := mustChan(t, d, ctx, Compute)
	var rs []*Request
	e.Spawn("submit", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r := ch.Stage(sim.Duration(10+i)*time.Microsecond, Compute)
			ch.Reg.Store(p, r.Ref)
			rs = append(rs, r)
		}
	})
	e.Run()
	for i := 1; i < len(rs); i++ {
		if rs[i].Started < rs[i-1].Completed {
			t.Fatalf("request %d started before %d completed", i, i-1)
		}
	}
}

func TestRoundRobinAcrossContexts(t *testing.T) {
	e, d := testDev(t)
	ctxA := mustCtx(t, d, 1)
	ctxB := mustCtx(t, d, 2)
	chA := mustChan(t, d, ctxA, Compute)
	chB := mustChan(t, d, ctxB, Compute)
	// Saturate both channels with equal-size requests.
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			r := chA.Stage(20*time.Microsecond, Compute)
			chA.Reg.Store(p, r.Ref)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			r := chB.Stage(20*time.Microsecond, Compute)
			chB.Reg.Store(p, r.Ref)
		}
	})
	e.Run()
	if ctxA.BusyTime != ctxB.BusyTime {
		t.Fatalf("uneven service: A=%v B=%v", ctxA.BusyTime, ctxB.BusyTime)
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	e, d := testDev(t)
	ctxA := mustCtx(t, d, 1)
	ctxB := mustCtx(t, d, 2)
	chA := mustChan(t, d, ctxA, Compute)
	chB := mustChan(t, d, ctxB, Compute)
	submit(e, chA, 10*time.Microsecond, Compute)
	submit(e, chB, 10*time.Microsecond, Compute)
	e.Run()
	// Two requests of 10us each plus at least two context switches
	// (idle->A, A->B).
	minTime := sim.Time(20*time.Microsecond + 2*d.Costs().ContextSwitch)
	if e.Now() < minTime {
		t.Fatalf("finished at %v, want >= %v (context switches unpaid)", e.Now(), minTime)
	}
}

func TestNoSwitchCostWithinContext(t *testing.T) {
	e, d := testDev(t)
	ctx := mustCtx(t, d, 1)
	ch := mustChan(t, d, ctx, Compute)
	e.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r := ch.Stage(10*time.Microsecond, Compute)
			ch.Reg.Store(p, r.Ref)
		}
	})
	e.Run()
	// One initial switch, then 10 back-to-back requests.
	want := sim.Time(100*time.Microsecond + d.Costs().ContextSwitch)
	slack := sim.Time(2 * time.Microsecond)
	if e.Now() > want+slack {
		t.Fatalf("took %v, want ~%v (spurious intra-context switches?)", e.Now(), want)
	}
}

func TestGraphicsPenaltyArbitration(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.GraphicsPenalty = 3
	d := New(e, cfg)
	cg := mustCtx(t, d, 1)
	cc := mustCtx(t, d, 2)
	gfx := mustChan(t, d, cg, Graphics)
	cmp := mustChan(t, d, cc, Compute)
	// Keep both queues saturated so the arbiter always has a choice —
	// the penalty only applies when a graphics channel competes with
	// ready non-graphics work.
	e.Spawn("gfx", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			r := gfx.Stage(10*time.Microsecond, Graphics)
			gfx.Reg.Store(p, r.Ref)
		}
	})
	e.Spawn("cmp", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			r := cmp.Stage(10*time.Microsecond, Compute)
			cmp.Reg.Store(p, r.Ref)
		}
	})
	e.RunFor(4 * time.Millisecond) // mid-run: both still have backlog
	ratio := float64(cmp.Completions) / float64(gfx.Completions)
	if ratio < 2.3 || ratio > 3.7 {
		t.Fatalf("compute/graphics completion ratio = %.2f, want ~3 (penalty)", ratio)
	}
}

func TestUniformArbitrationWithoutPenalty(t *testing.T) {
	e, d := testDev(t) // GraphicsPenalty = 1
	cg := mustCtx(t, d, 1)
	cc := mustCtx(t, d, 2)
	gfx := mustChan(t, d, cg, Graphics)
	cmp := mustChan(t, d, cc, Compute)
	e.Spawn("gfx", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			r := gfx.Stage(10*time.Microsecond, Graphics)
			gfx.Reg.Store(p, r.Ref)
		}
	})
	e.Spawn("cmp", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			r := cmp.Stage(10*time.Microsecond, Compute)
			cmp.Reg.Store(p, r.Ref)
		}
	})
	e.RunFor(3 * time.Millisecond)
	ratio := float64(cmp.Completions) / float64(gfx.Completions)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("completion ratio = %.2f, want ~1 (uniform)", ratio)
	}
}

func TestDMAOverlapsCompute(t *testing.T) {
	e, d := testDev(t)
	ctx := mustCtx(t, d, 1)
	cmp := mustChan(t, d, ctx, Compute)
	dma := mustChan(t, d, ctx, DMA)
	submit(e, cmp, 100*time.Microsecond, Compute)
	submit(e, dma, 100*time.Microsecond, DMA)
	e.Run()
	// With overlap, both finish in ~100us + switch, not 200us.
	if e.Now() > sim.Time(150*time.Microsecond) {
		t.Fatalf("finished at %v; DMA did not overlap compute", e.Now())
	}
}

func TestForeverRequestOccupiesDevice(t *testing.T) {
	e, d := testDev(t)
	ctxA := mustCtx(t, d, 1)
	ctxB := mustCtx(t, d, 2)
	chA := mustChan(t, d, ctxA, Compute)
	chB := mustChan(t, d, ctxB, Compute)
	submit(e, chA, Forever, Compute)
	victim := submit(e, chB, 10*time.Microsecond, Compute)
	e.RunFor(100 * time.Millisecond)
	if victim.IsDone() {
		t.Fatal("victim completed while an infinite request held the engine")
	}
	if d.CurrentRequest() == nil || d.CurrentRequest().ch != chA {
		t.Fatal("CurrentRequest should expose the hung request")
	}
}

func TestKillContextAbortsAndFrees(t *testing.T) {
	e, d := testDev(t)
	ctxA := mustCtx(t, d, 1)
	ctxB := mustCtx(t, d, 2)
	chA := mustChan(t, d, ctxA, Compute)
	chB := mustChan(t, d, ctxB, Compute)
	hung := submit(e, chA, Forever, Compute)
	queued := submit(e, chA, 10*time.Microsecond, Compute)
	victim := submit(e, chB, 10*time.Microsecond, Compute)
	e.RunFor(time.Millisecond)
	d.KillContext(ctxA)
	e.RunFor(time.Millisecond)
	if !hung.Aborted || !queued.Aborted {
		t.Fatal("attacker requests not aborted by exit protocol")
	}
	if !victim.IsDone() || victim.Aborted {
		t.Fatal("victim did not recover after kill")
	}
	if !ctxA.Dead() || d.ContextCount() != 1 {
		t.Fatalf("context not torn down: dead=%v count=%d", ctxA.Dead(), d.ContextCount())
	}
}

func TestKillOwnerKillsAllContexts(t *testing.T) {
	e, d := testDev(t)
	c1 := mustCtx(t, d, 7)
	c2 := mustCtx(t, d, 7)
	c3 := mustCtx(t, d, 8)
	_ = e
	d.KillOwner(7)
	if !c1.Dead() || !c2.Dead() || c3.Dead() {
		t.Fatal("KillOwner killed wrong contexts")
	}
}

func TestContextLimit(t *testing.T) {
	_, d := testDev(t)
	for i := 0; i < 48; i++ {
		if _, err := d.CreateContext(TaskID(i), "x"); err != nil {
			t.Fatalf("context %d failed early: %v", i, err)
		}
	}
	if _, err := d.CreateContext(99, "x"); err != ErrNoContexts {
		t.Fatalf("49th context error = %v, want ErrNoContexts", err)
	}
	// Killing one frees a slot.
	d.KillOwner(0)
	if _, err := d.CreateContext(99, "x"); err != nil {
		t.Fatalf("context after free failed: %v", err)
	}
}

func TestChannelOnDeadContext(t *testing.T) {
	_, d := testDev(t)
	c := mustCtx(t, d, 1)
	d.KillContext(c)
	if _, err := d.CreateChannel(c, Compute); err != ErrContextDead {
		t.Fatalf("err = %v, want ErrContextDead", err)
	}
}

func TestDoorbellBatchesStagedRequests(t *testing.T) {
	e, d := testDev(t)
	ctx := mustCtx(t, d, 1)
	ch := mustChan(t, d, ctx, Compute)
	r1 := ch.Stage(10*time.Microsecond, Compute)
	r2 := ch.Stage(10*time.Microsecond, Compute)
	r3 := ch.Stage(10*time.Microsecond, Compute)
	e.Spawn("s", func(p *sim.Proc) {
		ch.Reg.Store(p, r2.Ref) // ring for the first two only
	})
	e.Run()
	if !r1.IsDone() || !r2.IsDone() {
		t.Fatal("batched submissions not executed")
	}
	if r3.IsDone() {
		t.Fatal("unsubmitted staged request executed")
	}
	if len(ch.StagedRequests()) != 1 {
		t.Fatalf("staged = %d, want 1", len(ch.StagedRequests()))
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	e, d := testDev(t)
	ctx := mustCtx(t, d, 1)
	ch := mustChan(t, d, ctx, Compute)
	submit(e, ch, 75*time.Microsecond, Compute)
	e.Run()
	if ctx.BusyTime != 75*time.Microsecond {
		t.Fatalf("BusyTime = %v, want 75us", ctx.BusyTime)
	}
	if d.TotalBusy() != 75*time.Microsecond {
		t.Fatalf("TotalBusy = %v", d.TotalBusy())
	}
}

// TestPropertyRefCountMonotonic: reference counters never decrease, and
// completions equal submissions for terminating workloads.
func TestPropertyRefCountMonotonic(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 60 {
			return true
		}
		e := sim.NewEngine()
		d := New(e, DefaultConfig())
		ctx, _ := d.CreateContext(1, "q")
		ch, _ := d.CreateChannel(ctx, Compute)
		var last uint64
		ok := true
		e.Spawn("s", func(p *sim.Proc) {
			for _, s := range sizes {
				r := ch.Stage(sim.Duration(s+1)*time.Microsecond, Compute)
				ch.Reg.Store(p, r.Ref)
				p.Wait(r.DoneGate())
				if ch.RefCount < last {
					ok = false
				}
				last = ch.RefCount
			}
		})
		e.Run()
		return ok && ch.Completions == int64(len(sizes)) && ch.RefCount == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Compute: "compute", Graphics: "graphics", DMA: "dma"} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

// TestPinnedRequestRecyclesOnce pins the request lifetime: a pinned
// request recycles at the later of its owner's Release and its last
// Unpin, exactly once, and a double Release stays a no-op. A completion
// hook that releases its own request and stages the next one on the
// same channel is the third case: finish's pin keeps the released
// request out of the pool until its gate has opened, so the hook gets a
// new object, which reads not done with a closed gate. The last two
// cases kill the context under such a hook: the hook of a staged
// request stages inside the kill, and the hook of the executing one
// stages and rings its doorbell after it. Either next request finishes
// exactly once, aborted with its gate open.
func TestPinnedRequestRecyclesOnce(t *testing.T) {
	for _, order := range []string{"owner first", "watcher first", "hook restages", "hook stages in the kill", "hook stages after the kill"} {
		e, d := testDev(t)
		ch := mustChan(t, d, mustCtx(t, d, 1), Compute)
		r := submit(e, ch, 10*time.Microsecond, Compute)
		switch order {
		case "owner first":
			r.Pin()
			e.Run()
			r.Release()
			r.Release()
			if len(d.reqFree) != 0 {
				t.Fatalf("%s: recycled while pinned (pool %d)", order, len(d.reqFree))
			}
			r.Unpin()
		case "watcher first":
			r.Pin()
			e.Run()
			r.Unpin()
			if len(d.reqFree) != 0 {
				t.Fatalf("%s: recycled before the owner released (pool %d)", order, len(d.reqFree))
			}
			r.Release()
		case "hook restages":
			var next *Request
			r.OnDone = func(done *Request) {
				done.Release()
				if len(d.reqFree) != 0 {
					t.Fatalf("%s: recycled inside its own hook (pool %d)", order, len(d.reqFree))
				}
				next = ch.Stage(time.Microsecond, Compute)
			}
			e.Run()
			if next == r || next.IsDone() || next.DoneGate().IsOpen() {
				t.Fatalf("%s: next %p (released %p), done %v, gate open %v; want a new request, not done, gate closed",
					order, next, r, next.IsDone(), next.DoneGate().IsOpen())
			}
		case "hook stages in the kill", "hook stages after the kill":
			if order == "hook stages after the kill" {
				for d.CurrentRequest() != r {
					if !e.Step() {
						t.Fatalf("%s: the request never started", order)
					}
				}
			}
			var next *Request
			finished := 0
			r.OnDone = func(done *Request) {
				done.Release()
				next = ch.Stage(time.Microsecond, Compute)
				next.OnDone = func(*Request) { finished++ }
				ch.Reg.StoreAsync(e, next.Ref)
			}
			d.KillContext(ch.Ctx)
			e.Run()
			if next == nil || next == r || finished != 1 || !next.Aborted || !next.DoneGate().IsOpen() {
				t.Fatalf("%s: next %p (released %p), hook ran %d times, aborted %v, gate open %v; want a new request finished once, aborted",
					order, next, r, finished, next != nil && next.Aborted, next != nil && next.DoneGate().IsOpen())
			}
		}
		r.Release() // double release after recycling: a no-op
		if len(d.reqFree) != 1 || d.reqFree[0] != r {
			t.Fatalf("%s: pool %v, want exactly the request once", order, d.reqFree)
		}
		a, b := ch.Stage(time.Microsecond, Compute), ch.Stage(time.Microsecond, Compute)
		if a != r || b == r {
			t.Fatalf("%s: Stage reused %p then %p, want %p exactly once", order, a, b, r)
		}
	}
}

// TestFreshRequestsComeFromSlab: a request is one object with its done
// gate embedded, and an empty pool hands out requests from the device's
// slab, so staging 1,000 requests costs a few slab chunks (and the
// staged list's growth), where a request and a gate of their own cost
// 2,000 objects.
func TestFreshRequestsComeFromSlab(t *testing.T) {
	_, d := testDev(t)
	ch := mustChan(t, d, mustCtx(t, d, 1), Compute)
	ch.staged = make([]*Request, 0, 4096) // room for every run: count the requests alone
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 1000; i++ {
			ch.Stage(time.Microsecond, Compute)
		}
	})
	if allocs > 8 {
		t.Fatalf("staging 1,000 requests on an empty pool took %.0f allocations, want at most 8 (slab chunks)", allocs)
	}
}

// TestRecycledRequestGate: a recycled request's embedded done gate,
// reset in place, closes for its next use, queues waiters while closed
// (its first in the inline slot, more in a heap array) and opens at the
// next completion, waking them all once.
func TestRecycledRequestGate(t *testing.T) {
	e, d := testDev(t)
	ch := mustChan(t, d, mustCtx(t, d, 1), Compute)
	r := submit(e, ch, 10*time.Microsecond, Compute)
	e.Run()
	if !r.DoneGate().IsOpen() {
		t.Fatal("first use: gate closed after completion")
	}
	r.Release()
	again := submit(e, ch, 10*time.Microsecond, Compute)
	if again != r {
		t.Fatalf("Stage handed out %p, want the released %p", again, r)
	}
	g := again.DoneGate()
	if g.IsOpen() || again.IsDone() {
		t.Fatalf("recycled request: gate open %v, done %v; want closed and not done", g.IsOpen(), again.IsDone())
	}
	woke := 0
	for i := 0; i < 3; i++ {
		c := e.NewCont()
		c.Wait(g, func() { woke++ })
	}
	if g.Waiters() != 3 {
		t.Fatalf("recycled gate holds %d waiters, want 3", g.Waiters())
	}
	e.Run()
	if !g.IsOpen() || woke != 3 || g.Waiters() != 0 {
		t.Fatalf("after the second completion: gate open %v, %d of 3 waiters woke, %d still queued", g.IsOpen(), woke, g.Waiters())
	}
}
