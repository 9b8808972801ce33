package sim

// Gate is a condition-variable-like wakeup point in virtual time.
//
// Continuations queue on a Gate with Cont.Wait, WaitFor or WaitTimeout;
// a process waits through its own continuation (Proc.Wait). Wakers call
// Signal (wake one), Broadcast (wake all), or Open/Close
// (level-triggered: while open, waits pass immediately). Wakeups are
// delivered as events at the current virtual time, so a waker never
// runs a waiter's code inline.
type Gate struct {
	engine  *Engine
	name    string
	open    bool
	waiters []*Cont
}

// NewGate returns a closed gate.
func (e *Engine) NewGate(name string) *Gate {
	g := new(Gate)
	e.InitGate(g, name)
	return g
}

// InitGate makes the zero Gate g a closed gate on e, in place, for
// owners that embed their gate.
func (e *Engine) InitGate(g *Gate, name string) {
	g.engine, g.name = e, name
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
	c := g.waiters[0]
	copy(g.waiters, g.waiters[1:]) // shift in place: keep capacity
	g.waiters = g.waiters[:len(g.waiters)-1]
	g.release(c)
}

// Broadcast wakes all current waiters.
func (g *Gate) Broadcast() {
	ws := g.waiters
	g.waiters = g.waiters[:0] // keep capacity: gates are reused hot
	for _, c := range ws {
		g.release(c)
	}
}

// Waiters returns the number of continuations, processes included,
// currently waiting on the gate.
func (g *Gate) Waiters() int { return len(g.waiters) }

// release schedules a waiter's step at the current instant and cancels
// its WaitTimeout timer, if any.
func (g *Gate) release(c *Cont) {
	c.gate = nil
	c.wakeup.Stop() // inert unless a WaitTimeout timer is pending
	c.wakeup = g.engine.Schedule(g.engine.now, c.fireFn)
}

func (g *Gate) enqueue(c *Cont) {
	g.waiters = append(g.waiters, c)
	c.gate = g
}

func (g *Gate) remove(c *Cont) {
	for i, x := range g.waiters {
		if x == c {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}
