package sim

import (
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(10*time.Microsecond) {
		t.Fatalf("woke at %v, want 10us", woke)
	}
}

func TestProcSleepZeroDoesNotYield(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5)
		steps++
	})
	e.Run()
	if steps != 1 {
		t.Fatal("body did not complete")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	want := []Time{5, 10, 15}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			order = append(order, "a")
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(15)
			order = append(order, "b")
		}
	})
	e.Run()
	// t=10(a) 15(b) 20(a) 30(both: b's wakeup was scheduled at t=15,
	// a's at t=20, so b has the lower sequence number and fires first) 45(b)
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.SleepUntil(100)
		p.SleepUntil(50) // in the past: no-op
		if p.Now() != 100 {
			t.Errorf("Now() = %v, want 100", p.Now())
		}
	})
	e.Run()
}

func TestGateSignalWakesOne(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Wait(g)
			woken++
		})
	}
	e.RunFor(1)
	if g.Waiters() != 3 {
		t.Fatalf("Waiters() = %d, want 3", g.Waiters())
	}
	g.Signal()
	e.RunFor(1)
	if woken != 1 {
		t.Fatalf("woken = %d after Signal, want 1", woken)
	}
	g.Broadcast()
	e.RunFor(1)
	if woken != 3 {
		t.Fatalf("woken = %d after Broadcast, want 3", woken)
	}
}

func TestGateOpenIsLevelTriggered(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	g.Open()
	passed := false
	e.Spawn("w", func(p *Proc) {
		p.Wait(g) // should not block
		passed = true
	})
	e.Run()
	if !passed {
		t.Fatal("wait on open gate blocked")
	}
}

func TestGateCloseBlocksAgain(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	g.Open()
	g.Close()
	reached := false
	e.Spawn("w", func(p *Proc) {
		p.Wait(g)
		reached = true
	})
	e.RunFor(10)
	if reached {
		t.Fatal("wait on closed gate passed")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 blocked", e.LiveProcs())
	}
}

func TestWaitForPredicate(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	state := 0
	done := false
	e.Spawn("w", func(p *Proc) {
		p.WaitFor(g, func() bool { return state == 2 })
		done = true
	})
	e.After(10, func() { state = 1; g.Broadcast() })
	e.After(20, func() { state = 2; g.Broadcast() })
	e.Run()
	if !done {
		t.Fatal("WaitFor never satisfied")
	}
}

func TestKillBlockedProc(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	cleanup := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleanup = true }()
		p.Wait(g)
		t.Error("victim resumed past Wait")
	})
	e.After(10, func() { p.Kill() })
	e.Run()
	if !p.Finished() || !p.Killed() {
		t.Fatalf("finished=%v killed=%v", p.Finished(), p.Killed())
	}
	if !cleanup {
		t.Fatal("defers did not run during kill unwind")
	}
	if g.Waiters() != 0 {
		t.Fatal("killed proc left on gate")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestKillSleepingProc(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		t.Error("resumed past Sleep")
	})
	e.After(5, func() { p.Kill() })
	e.Run()
	if e.Now() != 5 {
		t.Fatalf("engine ran to %v; kill should cancel the hour-long wakeup", e.Now())
	}
}

func TestKillBeforeFirstRun(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Spawn("victim", func(p *Proc) { ran = true })
	p.Kill()
	e.Run()
	if ran {
		t.Fatal("killed-at-birth proc ran its body")
	}
	if e.LiveProcs() != 0 {
		t.Fatal("proc leaked")
	}
}

func TestKillTwiceIsSafe(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	p := e.Spawn("victim", func(p *Proc) { p.Wait(g) })
	e.After(1, func() { p.Kill(); p.Kill() })
	e.Run()
	if !p.Finished() {
		t.Fatal("proc not finished")
	}
}

func TestProcPanicPropagatesToEngine(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("proc panic did not reach engine")
		}
	}()
	e.Run()
}

// Spawn reuses a finished proc's coroutine, with the Cont it parks on,
// so once the pool is warm a proc's whole life (spawn, park on a gate,
// wake, finish) allocates only the Proc.
func TestProcSpawnParkFinishAllocs(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	body := func(p *Proc) { p.Wait(g) }
	life := func() {
		e.Spawn("p", body)
		e.Run()
		g.Signal()
		e.Run()
	}
	life() // warm the pool, the gate's waiter list and the event slab
	if a := testing.AllocsPerRun(100, life); a > 1 {
		t.Fatalf("spawn/park/finish allocates %.0f objects, want <= 1 (the Proc)", a)
	}
	if e.LiveProcs() != 0 || len(e.idle) != 1 {
		t.Fatalf("LiveProcs = %d, idle coroutines = %d; want 0 and 1", e.LiveProcs(), len(e.idle))
	}
}

// A coroutine whose proc ended abnormally goes back to the pool intact:
// the next Spawn receives it, runs its body, and a panic on it still
// surfaces from Run.
func TestPooledCoroutineSurvivesKillAndPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(p *Proc)
		end  func(t *testing.T, e *Engine, p *Proc) // drives p to its end
	}{
		{
			name: "killed before first run",
			body: func(p *Proc) { panic("killed-at-birth proc ran its body") },
			end: func(t *testing.T, e *Engine, p *Proc) {
				p.Kill()
				e.Run()
			},
		},
		{
			name: "killed while parked",
			body: func(p *Proc) { p.Wait(p.Engine().NewGate("never")) },
			end: func(t *testing.T, e *Engine, p *Proc) {
				e.Run()
				p.Kill()
				e.Run()
			},
		},
		{
			name: "panicked",
			body: func(p *Proc) { panic("first") },
			end: func(t *testing.T, e *Engine, p *Proc) {
				if r := runRecover(e); r == nil {
					t.Error("first panic did not surface from Run")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			p := e.Spawn("first", tc.body)
			co := p.co
			tc.end(t, e, p)
			if !p.Finished() || e.LiveProcs() != 0 {
				t.Fatalf("first proc finished=%v, LiveProcs = %d", p.Finished(), e.LiveProcs())
			}
			ran := false
			q := e.Spawn("second", func(p *Proc) {
				p.Sleep(1)
				ran = true
				panic("second")
			})
			if q.co != co {
				t.Fatal("second Spawn did not reuse the pooled coroutine")
			}
			r := runRecover(e)
			if !ran {
				t.Fatal("reused coroutine did not run the second body")
			}
			if s, _ := r.(string); !strings.Contains(s, `"second" panicked: second`) {
				t.Fatalf("Run panicked with %v, want the second proc's panic", r)
			}
		})
	}
}

// runRecover runs e and returns what Run panicked with, if anything.
func runRecover(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	base := 100 * time.Microsecond
	for i := 0; i < 1000; i++ {
		j := g.Jitter(base, 0.2)
		if j < 80*time.Microsecond || j > 120*time.Microsecond {
			t.Fatalf("jitter %v outside [80us,120us]", j)
		}
	}
	if g.Jitter(base, 0) != base {
		t.Fatal("zero-frac jitter changed value")
	}
}
