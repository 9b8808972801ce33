package sim

// Cont is a continuation: a thread of control written as callbacks
// instead of a process body. Each wake-up runs the function the caller
// handed it, in engine context. Sleep schedules it at now+d, a gate
// release schedules it at the release instant in the gate's FIFO order,
// and Yield schedules it at the back of the current instant, like a
// Signal. A Proc is a coroutine parked on a Cont, so its wake-ups sit
// exactly where the Cont's would, and code converted from a proc body
// to a Cont keeps the engine's (time, seq) sequence (DESIGN.md §11).
//
// Steps run under the engine's in-process marker (InProcContext), since
// they stand in for process code: a device kick from a step schedules
// its dispatch rather than folding it, as it would from a proc. A Cont
// has at most one wake-up outstanding; Stop cancels it, which is how an
// owner kills the thread.
type Cont struct {
	engine *Engine
	gate   *Gate // gate the cont is queued on, if any
	// wakeup is the scheduled step, or a WaitTimeout's timer while the
	// cont is queued on its gate.
	wakeup Timer

	// waitOn is the gate of a WaitFor in progress: a released waiter
	// whose predicate still fails queues on it again.
	waitOn *Gate
	pred   func() bool
	then   func()

	// fireFn is the pre-bound wake-up closure, allocated once in InitCont
	// so that sleeping and waiting allocate nothing. timeoutFn is
	// WaitTimeout's, bound on first use.
	fireFn, timeoutFn func()
}

// NewCont returns an idle continuation on e.
func (e *Engine) NewCont() *Cont {
	c := new(Cont)
	e.InitCont(c)
	return c
}

// InitCont makes the zero Cont c an idle continuation on e, in place:
// an owner that embeds its continuation (a slab-allocated record) pays
// only for the wake-up closure.
func (e *Engine) InitCont(c *Cont) {
	c.engine = e
	c.fireFn = c.fire
}

// Sleep runs then after d of virtual time. Zero and negative durations
// do not yield: then runs inline.
func (c *Cont) Sleep(d Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	c.arm(nil, then)
	c.wakeup = c.engine.After(d, c.fireFn)
}

// Yield runs then at the back of the current instant: the position a
// spawned proc's first activation, or a waiter woken by Signal, takes.
func (c *Cont) Yield(then func()) {
	c.arm(nil, then)
	c.wakeup = c.engine.Schedule(c.engine.now, c.fireFn)
}

// Wait runs then once g is signaled, inline if g is open.
func (c *Cont) Wait(g *Gate, then func()) {
	if g.open {
		then()
		return
	}
	c.arm(nil, then)
	g.enqueue(c)
}

// WaitFor runs then once pred() holds, re-testing each time g is
// signaled: a predicate that already holds runs then inline, and a
// released waiter whose predicate fails queues on g again. If g is
// open, pred is still required to pass; the cont yields between tests
// only when the gate is closed. pred must be free of side effects.
func (c *Cont) WaitFor(g *Gate, pred func() bool, then func()) {
	for !pred() {
		if !g.open {
			c.arm(pred, then)
			c.waitOn = g
			g.enqueue(c)
			return
		}
	}
	then()
}

// WaitTimeout runs then once g is signaled or d has elapsed, whichever
// comes first; then runs inline if g is open or d is not positive. A
// release schedules then at the release instant, as Wait does, and
// cancels the timer. A timeout takes the cont off the gate and runs then
// inline, in the timer's event. The caller tells the two apart from its
// own state.
func (c *Cont) WaitTimeout(g *Gate, d Duration, then func()) {
	if g.open || d <= 0 {
		then()
		return
	}
	if c.timeoutFn == nil {
		c.timeoutFn = c.timeout
	}
	c.arm(nil, then)
	c.wakeup = c.engine.After(d, c.timeoutFn)
	g.enqueue(c)
}

// Stop cancels the outstanding wake-up, if any, and reports whether
// there was one. The continuation's pending step never runs; the cont
// may be reused afterwards.
func (c *Cont) Stop() bool {
	if c.then == nil {
		return false
	}
	c.wakeup.Stop() // inert unless a step or a WaitTimeout timer is scheduled
	c.wakeup = Timer{}
	if c.gate != nil {
		c.gate.remove(c)
		c.gate = nil
	}
	c.disarm()
	return true
}

func (c *Cont) arm(pred func() bool, then func()) {
	if c.then != nil {
		panic("sim: Cont already has a wake-up outstanding")
	}
	c.pred, c.then = pred, then
}

func (c *Cont) disarm() {
	c.pred, c.then, c.waitOn = nil, nil, nil
}

// fire is the wake-up event: it runs the step, or for a WaitFor
// re-tests the predicate first, under the in-process marker.
func (c *Cont) fire() {
	c.wakeup = Timer{}
	e, pred, then, g := c.engine, c.pred, c.then, c.waitOn
	c.disarm()
	e.inProc++
	if pred != nil {
		c.WaitFor(g, pred, then)
	} else {
		then()
	}
	e.inProc-- // c may have left e: a pooled proc's cont does when the proc finishes
}

// timeout is a WaitTimeout's timer: a release would have cancelled it,
// so the cont is still queued. It leaves the gate and fires.
func (c *Cont) timeout() {
	c.gate.remove(c)
	c.gate = nil
	c.fire()
}
