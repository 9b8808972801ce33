package sim

import (
	"fmt"
	"testing"
)

// Gate fuzzer ops, one per input byte: the low four bits pick the op
// (modulo gfOps), bits 4-5 the continuation, bit 6 the gate, and bit 7
// a WaitTimeout's duration (1 or 3 ns).
const (
	gfWait        = iota // Cont.Wait on the gate
	gfWaitFor            // Cont.WaitFor on the gate, predicate: the cont's ready flag or the gate open
	gfWaitTimeout        // Cont.WaitTimeout on the gate
	gfStop               // Cont.Stop
	gfSignal             // Gate.Signal
	gfBroadcast          // Gate.Broadcast
	gfOpen               // Gate.Open
	gfClose              // Gate.Close
	gfStep               // Engine.Step: run one event
	gfReady              // flip the cont's ready flag (WaitFor's predicate)
	gfOps
)

const (
	gfConts = 4
	gfGates = 2
)

// FuzzGate decodes bytes into gate and continuation operations over
// four continuations and two gates: Wait, WaitFor, WaitTimeout, Stop,
// Signal, Broadcast, Open, Close and single engine steps. After every
// operation it checks the gates against a reference:
//   - each gate's waiters are the FIFO of the continuations waiting on
//     it, in the order they queued, and Waiters agrees;
//   - each wake fires exactly once: inline when the gate is open (or
//     the predicate holds, or the timeout is not positive), otherwise
//     in the event the release or the timeout scheduled, which the
//     reference predicts in the engine's (time, sequence) order, so a
//     released waiter fires at the instant of its release;
//   - a stopped waiter never fires, and Stop reports whether it had a
//     wake-up outstanding.
//
// WaitFor's predicate holds whenever its gate is open, so a released
// waiter never spins on an open gate. The seeds take a gate from one
// waiter to two and back, where the inline first slot hands the queue
// over to a heap array (TestGateInlineHandover).
func FuzzGate(f *testing.F) {
	for _, seed := range gateFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newGateFuzz(t).run(data)
	})
}

// gateFuzzSeeds reach the gate's 1 -> 2 -> 1 waiter transitions through
// Signal, Stop and a timeout, a WaitFor requeued by a failing
// predicate, and an open gate passing every kind of wait.
var gateFuzzSeeds = [][]byte{
	// c0 and c1 wait on g0, Signal wakes c0, c2 joins, Stop takes c1
	// off, steps fire the wake.
	{gfWait, 1<<4 | gfWait, gfSignal, 2<<4 | gfWaitFor, 1<<4 | gfStop, gfStep, gfStep, gfBroadcast, gfStep},
	// A WaitFor released with its predicate false queues again; a
	// WaitTimeout times out from the middle of the FIFO.
	{gfWaitFor, 1<<7 | 1<<4 | gfWaitTimeout, 2<<4 | gfWait, gfSignal, gfStep, gfStep, gfStep, gfStep,
		gfReady, gfBroadcast, gfStep, gfStep, gfStep},
	// An open gate passes every wait inline; Close and the second gate.
	{gfOpen, gfWait, 1<<4 | gfWaitFor, 1<<7 | 2<<4 | gfWaitTimeout, gfClose, 1<<6 | 3<<4 | gfWait,
		1<<6 | gfWait, 1<<6 | gfSignal, 1<<6 | gfOpen, gfStep, gfStep, gfStep},
}

// gfKind is how a reference continuation waits.
type gfKind uint8

const (
	gfIdle gfKind = iota
	gfQueued
	gfPending // released: its fire event is scheduled
)

// gfCont is the reference's record of one continuation. A cont has at
// most one event scheduled: a released waiter's fire or a WaitTimeout's
// timer.
type gfCont struct {
	state    gfKind
	gate     int
	pred     bool // a WaitFor: a fire re-tests the predicate
	ready    bool
	released int // times the reference expects then to run, so far

	scheduled bool // an event is scheduled, at (at, seq)
	timeout   bool // and it is a WaitTimeout's timer
	at        Time
	seq       int
}

// gateFuzz is one fuzz case's rig: the engine, the gates and conts
// under test, and the reference.
type gateFuzz struct {
	t      *testing.T
	e      *Engine
	gates  [gfGates]*Gate
	conts  [gfConts]Cont
	then   [gfConts]func()
	ran    [gfConts]int  // times each cont's then has run
	lastAt [gfConts]Time // when each cont's then last ran

	ref  [gfConts]gfCont
	fifo [gfGates][]int
	open [gfGates]bool
	seq  int // the next event's sequence number, in scheduling order
	n    int // the running op's index

	handedOff [gfGates]bool // the queue left the inline slot for a heap array
	oneOnHeap [gfGates]bool // a single waiter queued in the heap array
}

func newGateFuzz(t *testing.T) *gateFuzz {
	z := &gateFuzz{t: t, e: NewEngine()}
	for i := range z.gates {
		z.gates[i] = z.e.NewGate(fmt.Sprintf("g%d", i))
	}
	for i := range z.conts {
		z.e.InitCont(&z.conts[i])
		z.then[i] = func() { z.ran[i]++; z.lastAt[i] = z.e.Now() }
	}
	return z
}

// fail reports a broken gate rule, naming the running op.
func (z *gateFuzz) fail(format string, args ...any) {
	z.t.Helper()
	z.t.Fatalf(fmt.Sprintf("op %d at %v: ", z.n, z.e.Now())+format, args...)
}

func (z *gateFuzz) run(ops []byte) {
	for n, b := range ops {
		z.n = n
		ci, gi := int(b>>4)&3, int(b>>6)&1
		c, g, rc := &z.conts[ci], z.gates[gi], &z.ref[ci]
		switch int(b&15) % gfOps {
		case gfWait:
			if rc.state != gfIdle {
				continue // a second wake-up outstanding panics, by design
			}
			z.queue(ci, gi, false)
			c.Wait(g, z.then[ci])
		case gfWaitFor:
			if rc.state != gfIdle {
				continue
			}
			z.queue(ci, gi, true)
			c.WaitFor(g, func() bool { return z.ref[ci].ready || g.IsOpen() }, z.then[ci])
		case gfWaitTimeout:
			if rc.state != gfIdle {
				continue
			}
			d := Duration(1 + 2*int(b>>7))
			if !z.open[gi] {
				z.schedule(z.e.Now().Add(d), ci, true)
			}
			z.queue(ci, gi, false)
			c.WaitTimeout(g, d, z.then[ci])
		case gfStop:
			want := rc.state != gfIdle
			z.stop(ci)
			if got := c.Stop(); got != want {
				z.fail("Stop of cont %d reported %v, want %v", ci, got, want)
			}
		case gfSignal:
			if len(z.fifo[gi]) > 0 {
				z.release(z.fifo[gi][0])
				z.fifo[gi] = z.fifo[gi][1:]
			}
			g.Signal()
		case gfBroadcast:
			z.broadcast(gi)
			g.Broadcast()
		case gfOpen:
			z.open[gi] = true
			z.broadcast(gi)
			g.Open()
		case gfClose:
			z.open[gi] = false
			g.Close()
		case gfStep:
			z.step()
		case gfReady:
			rc.ready = !rc.ready
		}
		z.check()
	}
}

// queue records cont ci waiting on gate gi, or the then that runs
// inline when the wait passes at once.
func (z *gateFuzz) queue(ci, gi int, pred bool) {
	rc := &z.ref[ci]
	if z.open[gi] || (pred && rc.ready) {
		rc.released++
		return
	}
	rc.state, rc.gate, rc.pred = gfQueued, gi, pred
	z.fifo[gi] = append(z.fifo[gi], ci)
}

// schedule records cont ci's event, next in the engine's sequence
// order.
func (z *gateFuzz) schedule(at Time, ci int, timeout bool) {
	rc := &z.ref[ci]
	rc.scheduled, rc.timeout, rc.at, rc.seq = true, timeout, at, z.seq
	z.seq++
}

// release moves a queued cont to pending: its timer, if any, is
// cancelled and its fire is scheduled at the current instant.
func (z *gateFuzz) release(ci int) {
	z.ref[ci].state = gfPending
	z.schedule(z.e.Now(), ci, false)
}

func (z *gateFuzz) broadcast(gi int) {
	for _, ci := range z.fifo[gi] {
		z.release(ci)
	}
	z.fifo[gi] = z.fifo[gi][:0]
}

// stop drops cont ci's wait: off its gate's FIFO, its event cancelled.
func (z *gateFuzz) stop(ci int) {
	rc := &z.ref[ci]
	if rc.state == gfQueued {
		z.unqueue(ci)
	}
	rc.state, rc.scheduled = gfIdle, false
}

func (z *gateFuzz) unqueue(ci int) {
	q := z.fifo[z.ref[ci].gate]
	for i, x := range q {
		if x == ci {
			z.fifo[z.ref[ci].gate] = append(q[:i], q[i+1:]...)
			return
		}
	}
	z.fail("cont %d is not on gate %d's reference FIFO", ci, z.ref[ci].gate)
}

// step runs one engine event and applies the one the reference expects
// next: the live event with the earliest (time, sequence).
func (z *gateFuzz) step() {
	next := -1
	for ci, rc := range z.ref {
		if rc.scheduled && (next < 0 || rc.at < z.ref[next].at || rc.at == z.ref[next].at && rc.seq < z.ref[next].seq) {
			next = ci
		}
	}
	if !z.e.Step() {
		if next >= 0 {
			z.fail("the engine ran dry; the reference expects cont %d's event at %v", next, z.ref[next].at)
		}
		return
	}
	if next < 0 {
		z.fail("the engine ran an event the reference does not expect")
	}
	rc := &z.ref[next]
	if z.e.Now() != rc.at {
		z.fail("the event for cont %d ran at %v, want %v", next, z.e.Now(), rc.at)
	}
	rc.scheduled = false
	if rc.timeout {
		z.unqueue(next) // a timeout takes the cont off its gate and fires
	} else if rc.pred && !rc.ready && !z.open[rc.gate] {
		// A released WaitFor whose predicate fails queues again, at the
		// back of its gate's FIFO.
		rc.state = gfQueued
		z.fifo[rc.gate] = append(z.fifo[rc.gate], next)
		return
	}
	rc.state = gfIdle
	rc.released++
	if z.lastAt[next] != rc.at {
		z.fail("cont %d last fired at %v, want %v", next, z.lastAt[next], rc.at)
	}
}

// check compares the gates and the conts' wake counts with the
// reference.
func (z *gateFuzz) check() {
	z.t.Helper()
	for gi, g := range z.gates {
		q := z.fifo[gi]
		if g.Waiters() != len(q) {
			z.fail("gate %d holds %d waiters, want %d", gi, g.Waiters(), len(q))
		}
		for i, ci := range q {
			if g.waiters[i] != &z.conts[ci] {
				z.fail("gate %d's waiter %d is not cont %d", gi, i, ci)
			}
			if z.conts[ci].gate != g {
				z.fail("cont %d queued on gate %d does not name it", ci, gi)
			}
		}
		if g.IsOpen() != z.open[gi] {
			z.fail("gate %d open %v, want %v", gi, g.IsOpen(), z.open[gi])
		}
		inline := cap(g.waiters) > 0 && &g.waiters[:1][0] == &g.first[0]
		if len(q) >= 2 {
			z.handedOff[gi] = true
		}
		if len(q) == 1 && !inline {
			z.oneOnHeap[gi] = true
		}
		if !z.handedOff[gi] && !inline {
			z.fail("gate %d left its inline slot with at most one waiter", gi)
		}
	}
	for ci := range z.conts {
		if z.ran[ci] != z.ref[ci].released {
			z.fail("cont %d's then ran %d times, want %d", ci, z.ran[ci], z.ref[ci].released)
		}
		if z.ref[ci].state == gfIdle && z.conts[ci].gate != nil {
			z.fail("idle cont %d still names a gate", ci)
		}
	}
}

// TestGateInlineHandover runs FuzzGate's seeds and checks that together
// they take a gate from its inline slot to a heap array (two waiters)
// and back to one waiter, which the heap array then holds.
func TestGateInlineHandover(t *testing.T) {
	var handedOff, oneOnHeap bool
	for _, seed := range gateFuzzSeeds {
		z := newGateFuzz(t)
		z.run(seed)
		for gi := range z.gates {
			handedOff = handedOff || z.handedOff[gi]
			oneOnHeap = oneOnHeap || z.oneOnHeap[gi]
		}
	}
	if !handedOff || !oneOnHeap {
		t.Fatalf("seeds reached two waiters: %v; one waiter after two: %v; want both", handedOff, oneOnHeap)
	}
}
