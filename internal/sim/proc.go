package sim

import (
	"fmt"
	"iter"
)

// procState tracks where a Proc is in its lifecycle.
type procState uint8

const (
	procReady procState = iota
	procRunning
	procBlocked
	procFinished
)

// killSignal is the panic value used to unwind a killed process.
type killSignal struct{ name string }

// Proc is a simulated process: a body function running on a coroutine
// that parks on a Cont. Every blocking call (Sleep, Wait, WaitFor,
// Await) arms the Cont and parks the coroutine, and the Cont's step
// resumes it, so a proc's wake-ups sit exactly where a continuation's
// would. At most one of {engine, any proc} executes at a time, which
// keeps the simulation deterministic. Coroutines, with their Conts, are
// pooled per engine: a finished proc's coroutine runs the body of the
// next Spawn (DESIGN.md §11).
//
// A Proc may only call its blocking methods from its own body function.
type Proc struct {
	engine  *Engine
	name    string
	state   procState
	killed  bool
	resumed bool // an Await chain resumed inline, before the proc parked

	co *coro // the coroutine running the body; nil once finished
}

// coro is a pooled coroutine: an iter.Pull pair whose sequence function
// runs one proc body after another, and the Cont its procs park on.
// next resumes it from engine context; the body suspends through yield.
// Between bodies it parks in its engine's pool (Engine.coros) with no
// proc attached, and its Cont drops the engine, so an idle coroutine
// keeps no simulation reachable. Nothing stops an idle coroutine: like
// the coroutine of a proc that never finishes, it stays parked for the
// life of the process, so the pool holds at most as many coroutines as
// the engine ever had procs live at once.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
	body  func(*Proc)

	// c carries the current proc's wake-ups; resumeFn is the step that
	// resumes the proc, bound once per coroutine.
	c        *Cont
	resumeFn func()
}

// loop is the coroutine's sequence function. A coroutine rejoins the
// pool only after run returns, that is after the proc's finish
// bookkeeping.
func (co *coro) loop(yield func(struct{}) bool) {
	co.yield = yield
	for {
		p := co.p
		p.run(co.body)
		co.c.Stop()
		co.c.engine = nil
		co.p, co.body, p.co = nil, nil, nil
		p.engine.coros.Put(co)
		yield(struct{}{})
	}
}

// Spawn starts a new process executing body. The body begins running at
// the current virtual time, after the spawning context yields control
// back to the engine.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{engine: e, name: name, state: procReady}
	co, fresh := e.coros.Get()
	if fresh {
		co.c = e.NewCont()
		co.resumeFn = co.resume
		co.next, _ = iter.Pull(co.loop)
	} else {
		co.c.engine = e
	}
	co.p, co.body = p, body
	p.co = co
	e.procs++
	co.c.Yield(co.resumeFn)
	return p
}

// run executes the body and the finish bookkeeping on the proc's
// coroutine. A kill unwinds silently; any other panic is parked on the
// engine, which rethrows it from Run once the activation returns.
func (p *Proc) run(body func(p *Proc)) {
	defer func() {
		r := recover()
		if _, ok := r.(killSignal); ok {
			r = nil
		}
		p.state = procFinished
		p.engine.procs--
		if r != nil {
			p.engine.panicked = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
			p.engine.hasPanic = true
		}
	}()
	if p.killed {
		panic(killSignal{p.name})
	}
	p.state = procRunning
	body(p)
}

// resume is the proc's wake-up step. Called inline from the running
// proc (an Await chain that finished at once), it only notes that
// Await need not park. Otherwise it resumes the coroutine until the
// proc parks again or finishes. It runs as a step of the proc's Cont,
// so in engine context and under the in-process marker the step
// raises: from process code it would nest one body inside another, and
// resuming the running proc re-enters iter.Pull's next, which panics.
func (co *coro) resume() {
	if p := co.p; p.state == procRunning {
		p.resumed = true
		return
	}
	co.next()
}

// park suspends the process until its Cont's step resumes it.
func (p *Proc) park() {
	p.state = procBlocked
	p.co.yield(struct{}{})
	if p.killed {
		panic(killSignal{p.name})
	}
	p.state = procRunning
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// Finished reports whether the process body has returned (or been killed).
func (p *Proc) Finished() bool { return p.state == procFinished }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Sleep advances the process's local time by d: the process blocks and is
// woken after d of virtual time. Zero and negative durations return
// immediately without yielding.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.co.c.Sleep(d, p.co.resumeFn)
	p.park()
}

// SleepUntil blocks the process until absolute time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.engine.now {
		return
	}
	p.Sleep(t.Sub(p.engine.now))
}

// Wait blocks the process until g is signaled (or open). See Gate.
func (p *Proc) Wait(g *Gate) {
	if g.open {
		return
	}
	p.co.c.Wait(g, p.co.resumeFn)
	p.park()
}

// WaitFor blocks until pred() is true, re-testing each time g is
// signaled. If g is open, pred is still required to pass; the process
// yields between tests only when the gate is closed.
func (p *Proc) WaitFor(g *Gate, pred func() bool) {
	for !pred() {
		p.Wait(g)
	}
}

// Await runs start, which begins a chain of continuation steps on the
// process's own Cont, and parks p until the chain calls resume. The
// chain stands in for code the process would run itself: its first
// step runs inline here, its wake-ups are the process's own, and
// resume continues p inline in the step that calls it, which must be
// the chain's last use of the Cont. If the chain finishes inline, Await
// returns without parking. Killing p stops the chain, so none of its
// pending steps runs.
func (p *Proc) Await(start func(c *Cont, resume func())) {
	p.resumed = false
	start(p.co.c, p.co.resumeFn)
	if p.resumed {
		return
	}
	p.park()
}

// AwaitResult is Await for a chain that ends by handing a value and an
// error to its continuation: start begins the chain on p's own Cont with
// then as that continuation, and AwaitResult returns what the chain
// handed to then. It is how a blocking call wraps its continuation form.
func AwaitResult[T any](p *Proc, start func(c *Cont, then func(T, error))) (T, error) {
	var v T
	var err error
	p.Await(func(c *Cont, resume func()) {
		start(c, func(x T, e error) {
			v, err = x, e
			resume()
		})
	})
	return v, err
}

// Kill marks the process as killed and unwinds it. A parked or
// not-yet-started process has its Cont stopped, which cancels its
// sleep, gate wait or Await chain, and gets exactly one wake-up at the
// back of the current instant, where its body panics with an internal
// signal that run absorbs. A process that kills itself unwinds at its
// next wake-up. Killing a finished process is a no-op.
func (p *Proc) Kill() {
	if p.state == procFinished || p.killed {
		return
	}
	p.killed = true
	if p.state != procRunning {
		p.co.c.Stop()
		p.co.c.Yield(p.co.resumeFn)
	}
}
