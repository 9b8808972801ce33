package sim

// Cont is a continuation: a thread of control written as callbacks
// instead of a process body. It sleeps and waits on gates like a Proc,
// but each wake-up runs the function the caller handed it, in engine
// context, instead of resuming a coroutine. A wake-up sits exactly
// where a parked Proc's would: Sleep schedules it at now+d, a gate
// release schedules it at the release instant in the gate's FIFO order,
// and Yield schedules it at the back of the current instant, like a
// Spawn or a Signal. So code converted from a proc body to a Cont keeps
// the engine's (time, seq) sequence (DESIGN.md §11).
//
// Steps run under the engine's in-process marker (InProcContext), since
// they stand in for process code: a device kick from a step schedules
// its dispatch rather than folding it, as it would from the proc. A Cont
// has at most one wake-up outstanding; Stop cancels it, which is how an
// owner kills the thread.
type Cont struct {
	engine *Engine
	gate   *Gate // gate the cont is queued on, if any
	wakeup Timer

	// waitOn is the gate of a WaitFor in progress: a released waiter
	// whose predicate still fails queues on it again.
	waitOn *Gate
	pred   func() bool
	then   func()

	// fireFn is the pre-bound wake-up closure, allocated once in NewCont
	// so that sleeping and waiting allocate nothing.
	fireFn func()
}

// NewCont returns an idle continuation on e.
func (e *Engine) NewCont() *Cont {
	c := &Cont{engine: e}
	c.fireFn = c.fire
	return c
}

// Sleep runs then after d of virtual time. Like Proc.Sleep, zero and
// negative durations do not yield: then runs inline.
func (c *Cont) Sleep(d Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	c.arm(nil, then)
	c.wakeup = c.engine.After(d, c.fireFn)
}

// Yield runs then at the back of the current instant: the position a
// spawned proc's first activation, or a proc woken by Signal, takes.
func (c *Cont) Yield(then func()) {
	c.arm(nil, then)
	c.wakeup = c.engine.Schedule(c.engine.now, c.fireFn)
}

// Wait runs then once g is signaled, inline if g is open. See Proc.Wait.
func (c *Cont) Wait(g *Gate, then func()) {
	if g.open {
		then()
		return
	}
	c.arm(nil, then)
	g.enqueue(waiter{c: c})
	c.gate = g
}

// WaitFor runs then once pred() holds, re-testing each time g is
// signaled, with Proc.WaitFor's semantics: a predicate that already
// holds runs then inline, and a released waiter whose predicate fails
// queues on g again. pred must be free of side effects.
func (c *Cont) WaitFor(g *Gate, pred func() bool, then func()) {
	for !pred() {
		if !g.open {
			c.arm(pred, then)
			c.waitOn = g
			g.enqueue(waiter{c: c})
			c.gate = g
			return
		}
	}
	then()
}

// Stop cancels the outstanding wake-up, if any, and reports whether
// there was one. The continuation's pending step never runs; the cont
// may be reused afterwards.
func (c *Cont) Stop() bool {
	if c.then == nil {
		return false
	}
	c.wakeup.Stop() // inert unless a sleep, yield or gate release is scheduled
	c.wakeup = Timer{}
	if c.gate != nil {
		c.gate.remove(waiter{c: c})
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
	pred, then, g := c.pred, c.then, c.waitOn
	c.disarm()
	c.engine.inProc++
	if pred != nil {
		c.WaitFor(g, pred, then)
	} else {
		then()
	}
	c.engine.inProc--
}
