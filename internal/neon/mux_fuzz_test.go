package neon

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// Mux fuzzer ops, one per input byte: the low three bits pick the op,
// the rest the task.
const (
	fzOpen      = iota // open the task's logical context
	fzAcquire          // acquire it (attaching if need be) and submit one request, keeping the pin
	fzRelease          // drop one kept pin
	fzComplete         // run the engine 20 µs
	fzSample           // start a sampling run of the task
	fzSampleEnd        // end the sampling run now
	fzKill             // kill the task
	fzWait             // run the engine 1 ms
)

// FuzzMuxOps decodes bytes into mux operations over at most 8 tasks on
// a device of 1 to 4 contexts, and runs the engine one event at a time.
// After every event it checks the mux against a test-local reference:
// the evictable count is exact, every eviction took the least recently
// used evictable context, grants leave the attach queue in FIFO order,
// no open or acquire fails with ErrNoContexts, the device never
// exceeds its pool, exactly the queued contexts are in the queue, and
// the reserved slots are the granted contexts'. At the end, with every
// pin released and the engine quiet, nothing waits or stays reserved,
// no closed or detached logical context reaches a channel, and no dead
// task's context is still attaching, queued or granted.
func FuzzMuxOps(f *testing.F) {
	// The tight-pool storm's shape (TestMuxTightPoolStorm): a 4-context
	// pool, more tasks than slots, every task opening, then rounds of
	// acquire, release and completion.
	storm := []byte{3, 7}
	for task := byte(0); task < 8; task++ {
		storm = append(storm, task<<3|fzOpen)
	}
	for round := 0; round < 3; round++ {
		for task := byte(0); task < 8; task++ {
			storm = append(storm, task<<3|fzAcquire, task<<3|fzComplete, task<<3|fzRelease)
		}
		storm = append(storm, fzWait)
	}
	f.Add(storm)
	f.Add([]byte{0, 2, 0, 8, 16, 1, 9, 17, 3, 2, 3, 4, 10, 5, 18, 6, 7})
	f.Add([]byte{1, 5, 0, 8, 16, 24, 32, 1, 9, 17, 25, 33, 12, 3, 2, 10, 5, 22, 7, 2, 26})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		newMuxFuzz(t, 1+int(data[0]%4), 1+int(data[1]%8)).run(data[2:])
	})
}

// muxFuzz is one fuzz case's rig: a kernel, its tasks and their lanes,
// and what the test keeps about each task.
type muxFuzz struct {
	t    *testing.T
	e    *sim.Engine
	d    *gpu.Device
	k    *Kernel
	ctxs int

	tasks    []*Task
	lanes    []*sim.Cont // each task's lane; busy while a step is outstanding
	busy     []bool
	vcs      []*VContext
	all      []*VContext // every logical context opened, in open order
	known    map[*VContext]bool
	held     []int // pins kept by completed acquires
	sample   *sim.Cont
	sampling bool
}

func newMuxFuzz(t *testing.T, ctxs, tasks int) *muxFuzz {
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = ctxs
	d := gpu.New(e, cfg)
	z := &muxFuzz{t: t, e: e, d: d, k: NewKernel(d, quietSched{}), ctxs: ctxs, sample: e.NewCont(), known: map[*VContext]bool{}}
	for i := 0; i < tasks; i++ {
		task := z.k.NewTask(fmt.Sprintf("t%d", i))
		z.tasks = append(z.tasks, task)
		z.lanes = append(z.lanes, task.NewCont())
	}
	z.busy = make([]bool, tasks)
	z.vcs = make([]*VContext, tasks)
	z.held = make([]int, tasks)
	return z
}

func (z *muxFuzz) run(ops []byte) {
	for _, b := range ops {
		i := int(b>>3) % len(z.tasks)
		task := z.tasks[i]
		ready := task.Alive && !z.busy[i]
		switch b & 7 {
		case fzOpen:
			if ready && z.vcs[i] == nil {
				z.open(i)
			}
		case fzAcquire:
			if ready && z.vcs[i] != nil {
				z.acquire(i)
			}
		case fzRelease:
			if task.Alive && z.held[i] > 0 {
				z.held[i]--
				z.vcs[i].Release()
			}
		case fzComplete:
			z.runFor(20 * time.Microsecond)
		case fzSample:
			if task.Alive && !z.sampling {
				z.sampling = true
				z.k.SampleOn(z.sample, task, 200*time.Microsecond, 2, func(SampleResult) { z.sampling = false })
			}
		case fzSampleEnd:
			if z.sampling {
				z.k.sample.gate.Open()
			}
		case fzKill:
			if task.Alive {
				z.k.KillTask(task, "fuzz")
				z.busy[i], z.held[i] = false, 0
			}
		case fzWait:
			z.runFor(time.Millisecond)
		}
		z.check("op")
	}

	// Wind down: run the engine dry, release every pin, and repeat until
	// nothing is left to release. A context that a sampling run's end
	// made evictable wakes no waiter (no pump runs then), so a waiter
	// queued behind it stays queued until the next pump: the wind-down
	// gives it one, an acquire and release of an attached context.
	for kicks := 0; ; {
		for z.step() {
		}
		released := false
		for i, task := range z.tasks {
			for task.Alive && z.held[i] > 0 {
				z.held[i]--
				z.vcs[i].Release()
				released = true
			}
		}
		if m := z.k.mux; !released && m != nil && len(m.waiters) > 0 {
			if kicks++; kicks > len(z.tasks) {
				z.t.Fatalf("%d waiters stay queued after %d pumps", len(m.waiters), kicks-1)
			}
			for _, vc := range m.attached {
				if _, ok := vc.AcquireIf(gpu.Compute); ok {
					vc.Release()
					released = true
					break
				}
			}
		}
		if !released {
			break
		}
	}
	st := z.k.MuxStatus()
	if st.Waiting != 0 || st.Reserved != 0 {
		z.t.Fatalf("wound down with %d waiting and %d reserved", st.Waiting, st.Reserved)
	}
	for i, busy := range z.busy {
		if busy && z.tasks[i].Alive {
			z.t.Fatalf("t%d's lane never finished its step", i)
		}
	}
	// A closed context hands out no channel and no attach of it is left
	// in flight; a detached one holds no channel at all, the released
	// ones having gone back for reuse.
	for _, vc := range z.all {
		switch {
		case !vc.task.Alive && (len(vc.chans) != 0 || vc.chans0[0] != nil || vc.Attached()):
			z.t.Fatalf("%s's closed logical context still hands out a channel", vc.task.Name)
		case !vc.task.Alive && (vc.opBusy || vc.queued || vc.granted):
			z.t.Fatalf("%s's closed logical context is attaching %v, queued %v, granted %v", vc.task.Name, vc.opBusy, vc.queued, vc.granted)
		case vc.task.Alive && !vc.Attached() && (len(vc.chans) != 0 || vc.chans0[0] != nil || vc.opBusy || vc.ctx != nil || vc.queued || vc.granted):
			z.t.Fatalf("%s's detached logical context still reaches a channel", vc.task.Name)
		}
	}
}

func (z *muxFuzz) open(i int) {
	z.busy[i] = true
	z.k.OpenVirtualOn(z.lanes[i], z.tasks[i], "v", []gpu.Kind{gpu.Compute}, func(vc *VContext, err error) {
		z.busy[i] = false
		z.noCapError("open", i, err)
		z.vcs[i] = vc
	})
}

func (z *muxFuzz) acquire(i int) {
	z.busy[i] = true
	lane := z.lanes[i]
	z.vcs[i].AcquireOn(lane, gpu.Compute, func(ch *gpu.Channel, err error) {
		if err != nil {
			z.busy[i] = false
			z.noCapError("acquire", i, err)
			return
		}
		r := ch.Stage(sim.Duration(1+i%3)*time.Microsecond, gpu.Compute)
		ch.Reg.StoreOn(lane, r.Ref, func() {
			z.busy[i] = false
			z.held[i]++
		})
	})
}

// noCapError fails on any error but a dead task's.
func (z *muxFuzz) noCapError(what string, i int, err error) {
	switch {
	case err == nil:
	case errors.Is(err, gpu.ErrNoContexts):
		z.t.Fatalf("%s of t%d returned ErrNoContexts", what, i)
	case !errors.Is(err, gpu.ErrContextDead) || z.tasks[i].Alive:
		z.t.Fatalf("%s of live t%d failed: %v", what, i, err)
	}
}

// runFor runs the engine for d, one event at a time.
func (z *muxFuzz) runFor(d sim.Duration) {
	stop := false
	z.e.After(d, func() { stop = true })
	for !stop && z.step() {
	}
}

// step runs one event and checks the mux's transitions across it.
func (z *muxFuzz) step() bool {
	m := z.k.mux
	var queued []*VContext
	attached := map[*VContext]bool{}
	if m != nil {
		queued = append(queued, m.waiters...)
		for _, vc := range m.attached {
			attached[vc] = true
		}
	}
	if !z.e.Step() {
		return false
	}
	if m = z.k.mux; m == nil {
		return true
	}

	// Every eviction took the least recently used evictable context: no
	// context still attached and evictable was used before a victim.
	// (Evictions are the last thing a pump, an attach's slot search or
	// an exit does in its event, so nothing turned evictable after.)
	for vc := range attached {
		if vc.Attached() || !vc.task.Alive {
			continue
		}
		for _, other := range m.attached {
			if refEvictable(other) && other.lastUsed < vc.lastUsed {
				z.t.Fatalf("evicted t%s (used at %d) while t%s (used at %d) was evictable",
					vc.task.Name, vc.lastUsed, other.task.Name, other.lastUsed)
			}
		}
	}

	// Grants are FIFO: a context leaves the queue alive only when every
	// live context ahead of it has left too.
	still := map[*VContext]bool{}
	for _, vc := range m.waiters {
		still[vc] = true
	}
	blocked := false
	for _, vc := range queued {
		live := vc.task.Alive
		switch {
		case still[vc] && live:
			blocked = true
		case !still[vc] && live && blocked:
			z.t.Fatalf("t%s granted ahead of an earlier queued context", vc.task.Name)
		}
	}
	z.check("event")
	return true
}

// check compares the mux with the reference after an op or an event.
func (z *muxFuzz) check(when string) {
	m := z.k.mux
	if m == nil {
		return
	}
	n := 0
	for _, vc := range m.attached {
		if refEvictable(vc) {
			n++
		}
		if vc.counted != refEvictable(vc) {
			z.t.Fatalf("after an %s: t%s counted %v, evictable %v", when, vc.task.Name, vc.counted, refEvictable(vc))
		}
	}
	if n != m.evictable {
		z.t.Fatalf("after an %s: evictable count %d, reference %d", when, m.evictable, n)
	}
	// The device never exceeds its pool, and every reserved slot belongs
	// to a granted context that has not consumed it yet. (Live contexts
	// plus reserved slots may exceed the pool for a while: an attach that
	// passed its slot search sleeps its context syscall holding no
	// reservation, so a pump may grant the same free slot meanwhile, and
	// whichever creates its context second goes around again,
	// VContext.contextCreated.)
	for _, task := range z.tasks {
		for _, vc := range task.vctxs {
			if !z.known[vc] {
				z.known[vc] = true
				z.all = append(z.all, vc)
			}
		}
	}
	granted := 0
	for _, vc := range z.all {
		if vc.granted {
			granted++
		}
	}
	if n, reserved := z.d.ContextCount(), z.k.MuxStatus().Reserved; n > z.ctxs || reserved != granted {
		z.t.Fatalf("after an %s: %d live contexts on a %d-context pool, %d reserved for %d granted contexts",
			when, n, z.ctxs, reserved, granted)
	}
	// The queue holds exactly the queued contexts, each once.
	inQueue := map[*VContext]bool{}
	for _, vc := range m.waiters {
		if inQueue[vc] || !vc.queued {
			z.t.Fatalf("after an %s: t%s in the queue twice or unflagged (queued %v)", when, vc.task.Name, vc.queued)
		}
		inQueue[vc] = true
	}
	for _, vc := range z.all {
		if vc.queued != inQueue[vc] {
			z.t.Fatalf("after an %s: t%s queued %v, in the queue %v", when, vc.task.Name, vc.queued, inQueue[vc])
		}
	}
}

// refEvictable is the test's own statement of the eviction rule: an
// attached context with no pin, no attach in flight, and every channel
// idle and not sampling.
func refEvictable(vc *VContext) bool {
	if vc.hw == nil || vc.pins != 0 || vc.opBusy {
		return false
	}
	for _, cs := range vc.chans {
		if cs.sampling || !cs.Ch.Idle() {
			return false
		}
	}
	return true
}
