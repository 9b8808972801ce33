package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// stormWake is one waiter wake-up of a gate storm: who woke, when, and
// how many waiters the gate still held at that instant.
type stormWake struct {
	id      int
	at      Time
	waiters int
}

// gateStorm runs waiters that alternately sleep and wait (plain Wait or
// WaitFor on a level counter) on a handful of gates, while pre-scheduled
// wakers Signal, Broadcast, bump the levels, and Open and Close one
// gate. With callbacks the waiters are Conts, otherwise procs. Every
// random choice is drawn from a per-waiter or per-waker stream, so both
// forms make the same choices.
func gateStorm(seed int64, callbacks bool) []stormWake {
	const waiters, gates, rounds, wakers = 12, 3, 40, 400
	// Only the last gate opens: WaitFor on an open gate whose predicate
	// fails spins, for procs and callbacks alike.
	const levelGate = gates - 1
	e := NewEngine()
	gs := make([]*Gate, gates)
	level := make([]int, gates)
	for i := range gs {
		gs[i] = e.NewGate(fmt.Sprintf("g%d", i))
	}
	wr := rand.New(rand.NewSource(seed))
	for i := 0; i < wakers; i++ {
		g := wr.Intn(gates)
		at := Time(wr.Intn(20_000))
		switch op := wr.Intn(10); {
		case op < 4:
			e.Schedule(at, gs[g].Signal)
		case op < 8 || g != levelGate:
			e.Schedule(at, func() { level[g]++; gs[g].Broadcast() })
		case op < 9:
			e.Schedule(at, gs[g].Open)
		default:
			e.Schedule(at, gs[g].Close)
		}
	}
	var log []stormWake
	for id := 0; id < waiters; id++ {
		r := rand.New(rand.NewSource(seed*100 + int64(id)))
		var g, need int
		var usePred bool
		choose := func() (Duration, *Gate) {
			d := Duration(r.Intn(300)) // zero sleeps do not yield, in both forms
			g, usePred, need = r.Intn(gates), r.Intn(2) == 0, r.Intn(4)
			usePred = usePred && g != levelGate
			return d, gs[g]
		}
		pred := func() bool { return level[g] >= need }
		woke := func() {
			log = append(log, stormWake{id, e.Now(), gs[g].Waiters()})
			level[g] -= min(level[g], 1)
		}
		if !callbacks {
			e.Spawn(fmt.Sprint(id), func(p *Proc) {
				for k := 0; k < rounds; k++ {
					d, gate := choose()
					p.Sleep(d)
					if usePred {
						p.WaitFor(gate, pred)
					} else {
						p.Wait(gate)
					}
					woke()
				}
			})
			continue
		}
		c := e.NewCont()
		k := 0
		var next func()
		next = func() {
			if k == rounds {
				return
			}
			k++
			d, gate := choose()
			c.Sleep(d, func() {
				after := func() { woke(); next() }
				if usePred {
					c.WaitFor(gate, pred, after)
				} else {
					c.Wait(gate, after)
				}
			})
		}
		c.Yield(next) // where Spawn schedules the first activation
	}
	e.RunUntil(Time(time.Second))
	return log
}

// TestGateStormProcsAndCallbacksAgree is the callback waiter's
// contract: the same random gate storm, run with its waiters as procs
// and as continuations, wakes the same waiters in the same order at the
// same times, and Waiters counts both kinds alike.
func TestGateStormProcsAndCallbacksAgree(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		procs, conts := gateStorm(seed, false), gateStorm(seed, true)
		if len(procs) < 100 {
			t.Fatalf("seed %d: storm too quiet (%d wakes)", seed, len(procs))
		}
		if len(procs) != len(conts) {
			t.Fatalf("seed %d: %d proc wakes, %d callback wakes", seed, len(procs), len(conts))
		}
		for i := range procs {
			if procs[i] != conts[i] {
				t.Fatalf("seed %d: wake %d: proc %+v, callback %+v", seed, i, procs[i], conts[i])
			}
		}
	}
}

// TestContWaitForRechecks pins Proc.WaitFor's semantics on callbacks: a
// predicate that holds runs the step inline, a broadcast that leaves it
// false re-queues the waiter, and the step runs at the first broadcast
// after it holds, under the in-process marker.
func TestContWaitForRechecks(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	c := e.NewCont()
	ready := false
	var ranAt Time = -1
	inProc := false
	c.WaitFor(g, func() bool { return true }, func() { ranAt = e.Now() })
	if ranAt != 0 || g.Waiters() != 0 || e.Pending() != 0 {
		t.Fatalf("holding predicate: ran at %v, %d waiters; want inline", ranAt, g.Waiters())
	}
	ranAt = -1
	c.WaitFor(g, func() bool { return ready }, func() { ranAt, inProc = e.Now(), e.InProcContext() })
	e.Schedule(10, g.Broadcast) // predicate still false
	e.Schedule(20, func() { ready = true })
	e.Schedule(30, g.Broadcast)
	e.RunUntil(15)
	if ranAt != -1 || g.Waiters() != 1 {
		t.Fatalf("after a broadcast with a false predicate: ran at %v, %d waiters", ranAt, g.Waiters())
	}
	e.Run()
	if ranAt != 30 || !inProc {
		t.Fatalf("step ran at %v (in-process %v), want 30 under the marker", ranAt, inProc)
	}
	if g.Waiters() != 0 || c.Stop() {
		t.Fatalf("waiter left behind: %d waiters", g.Waiters())
	}
}

// TestContStopCancels: Stop cancels a sleep, a yield, a gate wait and a
// released-but-unfired wake-up; the step never runs and nothing stays
// queued.
func TestContStopCancels(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	ran := 0
	step := func() { ran++ }
	c := e.NewCont()
	if c.Stop() {
		t.Fatal("Stop of an idle cont reported a wake-up")
	}
	c.Sleep(5, step)
	if !c.Stop() || e.Pending() != 0 {
		t.Fatalf("sleep not cancelled: pending events %d", e.Pending())
	}
	c.Yield(step)
	c.Stop()
	c.Wait(g, step)
	if g.Waiters() != 1 || !c.Stop() || g.Waiters() != 0 {
		t.Fatal("gate wait not cancelled")
	}
	c.Wait(g, step)
	e.Schedule(1, func() { g.Signal(); c.Stop() }) // released, then stopped in the same event
	e.Run()
	if ran != 0 {
		t.Fatalf("a stopped step ran %d times", ran)
	}
	c.Sleep(1, step) // reusable after Stop
	e.Run()
	if ran != 1 {
		t.Fatal("cont not reusable after Stop")
	}
}

// TestProcAwaitResumesInline: Await parks the proc behind a chain of
// continuation steps and resumes it inside the step that calls resume;
// a chain that finishes inline never parks.
func TestProcAwaitResumesInline(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("p", func(p *Proc) {
		p.Await(func(c *Cont, resume func()) { c.Sleep(0, resume) })
		trace = append(trace, fmt.Sprint("inline ", int64(p.Now())))
		p.Await(func(c *Cont, resume func()) {
			c.Sleep(7, func() {
				e.After(0, func() { trace = append(trace, fmt.Sprint("later event ", int64(e.Now()))) })
				resume()
				trace = append(trace, fmt.Sprint("step tail ", int64(e.Now())))
			})
		})
		trace = append(trace, fmt.Sprint("resumed ", int64(p.Now())))
	})
	e.Run()
	want := []string{"inline 0", "resumed 7", "step tail 7", "later event 7"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %q, want %q", trace, want)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs", e.LiveProcs())
	}
}

// TestAwaitResultHandsBackValue: AwaitResult returns what the chain
// hands its continuation, whether the chain finishes inline or from a
// later step.
func TestAwaitResultHandsBackValue(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	var got []string
	e.Spawn("p", func(p *Proc) {
		v, err := AwaitResult(p, func(c *Cont, then func(int, error)) { then(1, nil) })
		got = append(got, fmt.Sprint(v, err, int64(p.Now())))
		v, err = AwaitResult(p, func(c *Cont, then func(int, error)) {
			c.Sleep(5, func() { then(2, boom) })
		})
		got = append(got, fmt.Sprint(v, err, int64(p.Now())))
	})
	e.Run()
	if want := []string{"1 <nil> 0", "2 boom 5"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestKillStopsAwaitedChain: killing a proc parked in Await stops its
// chain, whether the chain sleeps or waits on a gate, and the proc
// unwinds.
func TestKillStopsAwaitedChain(t *testing.T) {
	for _, onGate := range []bool{false, true} {
		e := NewEngine()
		g := e.NewGate("g")
		ran := false
		p := e.Spawn("p", func(p *Proc) {
			p.Await(func(c *Cont, resume func()) {
				if onGate {
					c.Wait(g, func() { ran = true; resume() })
				} else {
					c.Sleep(10, func() { ran = true; resume() })
				}
			})
			t.Error("killed proc resumed")
		})
		e.Schedule(5, p.Kill)
		e.Schedule(6, g.Broadcast)
		e.Run()
		if ran || !p.Finished() || e.LiveProcs() != 0 || g.Waiters() != 0 {
			t.Fatalf("onGate=%v: step ran %v, finished %v, live %d, waiters %d",
				onGate, ran, p.Finished(), e.LiveProcs(), g.Waiters())
		}
	}
}

// TestWaitTimeoutFires: with no release, the timer takes the cont
// off the gate and runs the step inline, in the timer's own event and
// under the in-process marker.
func TestWaitTimeoutFires(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	c := e.NewCont()
	var ranAt Time = -1
	inProc := false
	c.WaitTimeout(g, 25, func() { ranAt, inProc = e.Now(), e.InProcContext() })
	if g.Waiters() != 1 || e.Pending() != 1 {
		t.Fatalf("queued wait: %d waiters, %d pending events; want 1 and the timer", g.Waiters(), e.Pending())
	}
	e.Run()
	if ranAt != 25 || !inProc {
		t.Fatalf("step ran at %v (in-process %v), want 25 under the marker", ranAt, inProc)
	}
	if g.Waiters() != 0 || c.Stop() {
		t.Fatalf("timed-out cont left behind: %d waiters", g.Waiters())
	}
}

// TestWaitTimeoutSignaledEarly: a release schedules the step at
// the release instant, after the events already queued there, and
// cancels the timer, so nothing runs at the deadline.
func TestWaitTimeoutSignaledEarly(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	c := e.NewCont()
	var trace []string
	c.WaitTimeout(g, 100, func() { trace = append(trace, fmt.Sprint("step ", int64(e.Now()))) })
	e.Schedule(10, func() {
		g.Broadcast()
		e.After(0, func() { trace = append(trace, "queued after the release") })
	})
	e.RunUntil(10)
	if e.Pending() != 0 || g.Waiters() != 0 {
		t.Fatalf("after the release: %d pending events, %d waiters; want the timer cancelled", e.Pending(), g.Waiters())
	}
	e.Run()
	if want := []string{"step 10", "queued after the release"}; fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %q, want %q", trace, want)
	}
	if e.Now() != 10 {
		t.Fatalf("engine ran to %v; the cancelled timer must not fire", e.Now())
	}
}

// TestWaitTimeoutStopCancelsBoth: Stop takes the cont off the gate
// and cancels the timer, and a gate that is open or a window that is not
// positive runs the step inline.
func TestWaitTimeoutStopCancelsBoth(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	c := e.NewCont()
	ran := 0
	step := func() { ran++ }
	c.WaitTimeout(g, 50, step)
	if !c.Stop() || g.Waiters() != 0 || e.Pending() != 0 {
		t.Fatalf("after Stop: %d waiters, %d pending events", g.Waiters(), e.Pending())
	}
	c.WaitTimeout(g, 50, step)
	e.Schedule(5, func() { g.Signal(); c.Stop() }) // released, then stopped in the same event
	e.Run()
	if ran != 0 || e.Now() != 5 {
		t.Fatalf("a stopped step ran %d times; engine at %v", ran, e.Now())
	}
	c.WaitTimeout(g, 0, step)
	g.Open()
	c.WaitTimeout(g, 50, step)
	if ran != 2 || e.Pending() != 0 {
		t.Fatalf("inline cases ran %d steps, left %d events; want 2 and none", ran, e.Pending())
	}
}
