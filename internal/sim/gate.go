package sim

// Gate is a condition-variable-like wakeup point in virtual time.
//
// Processes block on a Gate with Proc.Wait or Proc.WaitFor, and
// continuations queue on it with Cont.Wait or Cont.WaitFor. Both kinds
// of waiter share one FIFO. Wakers call Signal (wake one), Broadcast
// (wake all), or Open/Close (level-triggered: while open, waits pass
// immediately). Wakeups are delivered as events at the current virtual
// time, so a waker never runs a waiter's code inline.
type Gate struct {
	engine  *Engine
	name    string
	open    bool
	waiters []waiter
}

// waiter is one entry of a gate's FIFO: a parked proc or a queued
// continuation (exactly one of p and c is set).
type waiter struct {
	p *Proc
	c *Cont
}

// NewGate returns a closed gate.
func (e *Engine) NewGate(name string) *Gate {
	return &Gate{engine: e, name: name}
}

// Name returns the gate's name.
func (g *Gate) Name() string { return g.name }

// IsOpen reports whether the gate is currently open.
func (g *Gate) IsOpen() bool { return g.open }

// Open opens the gate and wakes all current waiters. Future waits pass
// immediately until Close is called.
func (g *Gate) Open() {
	g.open = true
	g.Broadcast()
}

// Close closes the gate; future waits will block.
func (g *Gate) Close() { g.open = false }

// Signal wakes a single waiter (the longest-waiting one), if any.
func (g *Gate) Signal() {
	if len(g.waiters) == 0 {
		return
	}
	w := g.waiters[0]
	copy(g.waiters, g.waiters[1:]) // shift in place: keep capacity
	g.waiters = g.waiters[:len(g.waiters)-1]
	g.release(w)
}

// Broadcast wakes all current waiters.
func (g *Gate) Broadcast() {
	ws := g.waiters
	g.waiters = g.waiters[:0] // keep capacity: gates are reused hot
	for _, w := range ws {
		g.release(w)
	}
}

// Waiters returns the number of processes and continuations currently
// waiting on the gate.
func (g *Gate) Waiters() int { return len(g.waiters) }

// release schedules a waiter's wake-up at the current instant: a
// proc's activation or a continuation's step, in the same queue
// position either way.
func (g *Gate) release(w waiter) {
	if w.p != nil {
		w.p.gate = nil
		g.engine.Schedule(g.engine.now, w.p.activateFn)
		return
	}
	w.c.gate = nil
	w.c.wakeup = g.engine.Schedule(g.engine.now, w.c.fireFn)
}

func (g *Gate) wait(p *Proc) {
	if g.open {
		return
	}
	g.enqueue(waiter{p: p})
	p.gate = g
	p.block()
}

func (g *Gate) enqueue(w waiter) { g.waiters = append(g.waiters, w) }

func (g *Gate) remove(w waiter) {
	for i, x := range g.waiters {
		if x == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}
