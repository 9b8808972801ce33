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
// that only the engine resumes and only the body suspends. At most one
// of {engine, any proc} executes at a time, which keeps the simulation
// deterministic. Coroutines are pooled per engine: a finished proc's
// coroutine runs the body of the next Spawn (DESIGN.md §11).
//
// A Proc may only call its blocking methods (Sleep, SleepUntil, Wait,
// WaitFor, WaitTimeout, Await) from its own body function.
type Proc struct {
	engine *Engine
	name   string
	state  procState
	killed bool

	co *coro // the coroutine running the body; nil once finished

	gate     *Gate // gate currently blocked on, if any
	wakeup   Timer
	finished func(*Proc)

	// await is the proc's Await state, created on first use.
	await *awaiter

	// activateFn is the pre-bound activation closure, allocated once at
	// Spawn so that every wakeup (Sleep, Gate release, Kill) schedules it
	// without allocating a fresh closure on the hot path.
	activateFn func()
}

// coro is a pooled coroutine: an iter.Pull pair whose sequence function
// runs one proc body after another. next resumes it from engine context;
// the body suspends through yield. Between bodies it parks in its
// engine's idle list with no proc attached. Nothing stops an idle
// coroutine: like the coroutine of a proc that never finishes, it stays
// parked for the life of the process, so the pool holds at most as
// many coroutines as the engine ever had procs live at once.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
	body  func(*Proc)
}

// loop is the coroutine's sequence function. A coroutine rejoins the
// pool only after run returns, that is after the proc's finish
// bookkeeping and OnFinish, so a Spawn from inside OnFinish never
// receives the coroutine that is still finishing.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		p.run(c.body)
		c.p, c.body, p.co = nil, nil, nil
		p.engine.idle = append(p.engine.idle, c)
		yield(struct{}{})
	}
}

// Spawn starts a new process executing body. The body begins running at
// the current virtual time, after the spawning context yields control
// back to the engine.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{engine: e, name: name, state: procReady}
	p.activateFn = func() { p.activate() }
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &coro{}
		c.next, _ = iter.Pull(c.loop)
	}
	c.p, c.body = p, body
	p.co = c
	e.procs++
	e.Schedule(e.now, p.activateFn)
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
		if p.finished != nil && r == nil {
			fn := p.finished
			p.finished = nil
			fn(p)
		}
	}()
	if p.killed {
		panic(killSignal{p.name})
	}
	p.state = procRunning
	body(p)
}

// activate resumes the process until it blocks or finishes. It must run
// in engine context: from process code it would nest one body inside
// another, and resuming the running proc re-enters iter.Pull's next,
// which panics. The inProc window brackets exactly the span during
// which process code may be on the stack, which is what InProcContext
// reports.
func (p *Proc) activate() {
	if p.state == procFinished {
		return
	}
	p.engine.inProc++
	p.co.next()
	p.engine.inProc--
}

// block suspends the process until some event calls activate again.
func (p *Proc) block() {
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

// OnFinish registers fn to run when the process finishes by returning or
// by being killed; a panicking body skips it. fn runs on the process's
// coroutine before the coroutine rejoins the pool, so it may Spawn.
func (p *Proc) OnFinish(fn func(*Proc)) { p.finished = fn }

// Sleep advances the process's local time by d: the process blocks and is
// woken after d of virtual time. Zero and negative durations return
// immediately without yielding.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.wakeup = p.engine.After(d, p.activateFn)
	p.block()
	p.wakeup = Timer{}
}

// SleepUntil blocks the process until absolute time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.engine.now {
		return
	}
	p.Sleep(t.Sub(p.engine.now))
}

// Wait blocks the process until g is signaled (or open). See Gate.
func (p *Proc) Wait(g *Gate) { g.wait(p) }

// WaitFor blocks until pred() is true, re-testing each time g is
// signaled. If g is open, pred is still required to pass; the process
// yields between tests only when the gate is closed.
func (p *Proc) WaitFor(g *Gate, pred func() bool) {
	for !pred() {
		g.wait(p)
	}
}

// WaitTimeout blocks until g is signaled or d elapses, whichever comes
// first. It reports whether the wait timed out.
func (p *Proc) WaitTimeout(g *Gate, d Duration) (timedOut bool) {
	if g.open || d <= 0 {
		return d <= 0 && !g.open
	}
	fired := false
	t := p.engine.After(d, func() {
		if p.gate == g {
			g.remove(waiter{p: p})
			p.gate = nil
			fired = true
			p.activate()
		}
	})
	g.wait(p)
	t.Stop()
	return fired
}

// awaiter is a proc's Await state: its own continuation and the
// pre-bound resume function handed to the chains it waits on.
type awaiter struct {
	p        *Proc
	c        *Cont
	resumeFn func()
	parked   bool // p is parked in Await
	resumed  bool // resume ran inline, before Await parked
}

// Await runs start, which begins a chain of continuation steps on the
// process's own Cont, and parks p until the chain calls resume. The
// chain stands in for code the process would run itself: its first
// step runs inline here, its wake-ups sit where p's own would, and
// resume continues p inline in the step that calls it, as if p's own
// wake-up had fired. If the chain finishes inline, Await returns
// without parking. Killing p stops the chain, so none of its pending
// steps runs.
func (p *Proc) Await(start func(c *Cont, resume func())) {
	w := p.await
	if w == nil {
		w = &awaiter{p: p, c: p.engine.NewCont()}
		w.resumeFn = w.resume
		p.await = w
	}
	w.resumed = false
	start(w.c, w.resumeFn)
	if w.resumed {
		return
	}
	w.parked = true
	p.block()
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

// resume ends an Await: inline, it lets Await return at once; from a
// continuation step (engine context) it activates the parked process.
func (w *awaiter) resume() {
	if !w.parked {
		w.resumed = true
		return
	}
	w.parked = false
	w.p.activate()
}

// Kill marks the process as killed and unwinds it. If the process is
// blocked, it is woken immediately (at the current virtual time) and its
// body panics with an internal signal that run absorbs.
// Killing a finished process is a no-op. Kill must be called from engine
// or other-process context, never from the process itself.
func (p *Proc) Kill() {
	if p.state == procFinished || p.killed {
		return
	}
	p.killed = true
	p.wakeup.Stop() // inert if no sleep is outstanding (zero Timer)
	p.wakeup = Timer{}
	if w := p.await; w != nil {
		w.c.Stop()
		w.parked = false
	}
	if p.gate != nil {
		p.gate.remove(waiter{p: p})
		p.gate = nil
	}
	if p.state == procBlocked || p.state == procReady {
		p.engine.Schedule(p.engine.now, p.activateFn)
	}
}
