package workload

import (
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// App is a running application instance: a kernel task executing its
// spec's round loop forever (until killed or the simulation stops).
type App struct {
	Spec Spec
	Task *neon.Task

	// Rounds and RoundTime accumulate since the last ResetStats.
	Rounds    int64
	RoundTime sim.Duration

	// Observe enables Figure 2 instrumentation.
	Observe      bool
	InterArrival metrics.Log2Hist
	Service      metrics.Log2Hist
	perKind      map[gpu.Kind]*metrics.Mean

	client     *userlib.Client
	rng        *sim.RNG
	lastSubmit sim.Time
	setupErr   error
	ready      *sim.Gate

	// Continuation-machine state (DESIGN.md §14): the round loop runs as
	// an engine-driven state machine so steady-state rounds cost no
	// proc park/unpark. Submissions that fault (engaged channels) take
	// the slow lane, a continuation of the task (neon.Task.NewCont)
	// that carries the fault and whatever the machine does next until
	// it can return to engine-context steps.
	eng        *sim.Engine
	dw         sim.Duration // cost.Model.DirectWrite, the doorbell latency
	reqs       []Req
	phase      int
	idx        int            // next request in the round's sequence
	noted      bool           // reqs[idx] already counted by noteSubmit
	pending    int            // fire-and-forget submissions not yet completed
	fencing    bool           // machine parked at the frame fence
	awaiting   *gpu.Request   // blocking request whose continuation resumes the machine
	faulting   *gpu.Request   // blocking request on its way through the slow lane
	retire     []*gpu.Request // completed fire-and-forget requests to recycle
	roundStart sim.Time
	lane       *sim.Cont

	// Pre-bound steps and completion hooks.
	stepFn    func() // engine-context step
	laneFn    func() // slow-lane step
	faultFn   func() // slow lane: fault reqs[idx]
	firedFn   func() // slow lane: a fire-and-forget faulting store landed
	storedFn  func() // slow lane: a blocking faulting store landed
	blockedFn func() // slow lane: the blocking request completed
	trivDone  func(*gpu.Request)
	pipeDone  func(*gpu.Request)
	blockDone func(*gpu.Request)
}

// Round-machine phases.
const (
	phThink  = iota // CPU think timer in flight
	phSubmit        // submitting reqs[idx:]
	phFence         // waiting for pending to reach zero
	phOff           // off-period timer in flight
)

// Launch creates a task named after the spec and starts its round loop.
// The returned App accumulates statistics as the simulation advances.
func Launch(k *neon.Kernel, spec Spec, rng *sim.RNG) *App {
	a := &App{
		Spec:    spec,
		rng:     rng,
		perKind: make(map[gpu.Kind]*metrics.Mean),
		ready:   k.Engine().NewGate("ready-" + spec.Name),
	}
	a.Task = k.NewTask(spec.Name)
	a.Task.Go("main", func(p *sim.Proc) { a.setup(p, k) })
	return a
}

// SetupError returns any context/channel allocation failure.
func (a *App) SetupError() error { return a.setupErr }

// Alive reports whether the app's task is still running.
func (a *App) Alive() bool { return a.Task.Alive }

// AvgRound returns the mean round time since the last ResetStats.
func (a *App) AvgRound() sim.Duration {
	if a.Rounds == 0 {
		return 0
	}
	return a.RoundTime / sim.Duration(a.Rounds)
}

// MeanRequest returns the observed mean service time on a channel kind.
func (a *App) MeanRequest(kind gpu.Kind) sim.Duration {
	if m := a.perKind[kind]; m != nil {
		return m.Duration()
	}
	return 0
}

// ResetStats clears round and request statistics (for warmup exclusion).
func (a *App) ResetStats() {
	a.Rounds = 0
	a.RoundTime = 0
	a.InterArrival = metrics.Log2Hist{}
	a.Service = metrics.Log2Hist{}
	a.perKind = make(map[gpu.Kind]*metrics.Mean)
}

// setup opens the client from the task's process, then starts the
// spec's round loop as a continuation-passing state machine and lets
// the process finish: the setup syscalls are the only work that needs
// one. Submissions ride the asynchronous doorbell fast path
// (userlib.SubmitAsync) and completions re-enter the machine in engine
// context, so a steady-state round costs zero proc park/unpark. A
// submission refused because its channel is engaged hops to the slow
// lane, which takes the fault (userlib.SubmitFaulting) with its trap,
// scan and scheduler wait, and keeps stepping the machine until it can
// return to engine context. Each lane step sits where a slow-lane
// process's wake-up would (DESIGN.md §14).
//
// The machine reproduces the blocking loop's event timeline precisely:
// a fire-and-forget submission chains the next step After(DirectWrite)
// — the clock the old blocking store's sleep advanced — and a
// completion continuation re-enters via After(0), the same queue
// position the old done-gate broadcast gave the woken process.
func (a *App) setup(p *sim.Proc, k *neon.Kernel) {
	kinds := a.Spec.Channels
	if len(kinds) == 0 {
		kinds = []gpu.Kind{gpu.Compute}
	}
	client, err := userlib.Open(p, k, a.Task, a.Spec.Name, kinds...)
	if err != nil {
		a.setupErr = err
		a.ready.Open()
		return
	}
	a.client = client
	a.ready.Open()

	a.eng = p.Engine()
	a.dw = k.Costs().DirectWrite
	a.reqs = a.Spec.Requests()
	a.stepFn = func() { a.step(false) }
	a.trivDone = func(r *gpu.Request) { a.oneDone(r, false) }
	a.pipeDone = func(r *gpu.Request) { a.oneDone(r, true) }
	a.blockDone = func(*gpu.Request) { a.eng.After(0, a.stepFn) }

	a.beginRound(p.Now())
}

// beginRound starts a round: stamp the start, think for CPU, submit.
func (a *App) beginRound(now sim.Time) {
	a.roundStart = now
	a.phase = phThink
	a.eng.After(a.Spec.CPU, a.stepFn)
}

// endRound accounts the finished round and starts the next one.
func (a *App) endRound() {
	now := a.eng.Now()
	a.Rounds++
	a.RoundTime += now.Sub(a.roundStart)
	a.beginRound(now)
}

// oneDone is the completion continuation of fire-and-forget submissions
// (trivial and pipelined requests). It runs in engine context inside the
// request's finish; the request is retired later, from step context,
// because the device's completion observer still reads it after the
// hook returns.
func (a *App) oneDone(r *gpu.Request, observe bool) {
	a.pending--
	if r.Aborted {
		return
	}
	if observe {
		a.noteDone(r)
	}
	a.retire = append(a.retire, r)
	if a.fencing && a.pending == 0 {
		a.eng.After(0, a.stepFn)
	}
}

// step advances the round machine. Outside the lane it runs in engine
// context and must not block: a submission refused because its channel
// is engaged hands off to the slow lane. On the lane (lane == true) it
// runs as a step of the lane continuation, and a refusal takes the
// fault at once, as the process-driven lane's blocking store did.
func (a *App) step(lane bool) {
	if !a.Task.Alive {
		return
	}
	if r := a.awaiting; r != nil {
		// A blocking request's continuation brought us here. The request
		// is recycled: completion processing finished before this After(0)
		// step ran. A sampling watcher's pin, if any, defers the recycle
		// until the watcher has observed it.
		a.awaiting = nil
		a.noteDone(r)
		r.Release()
		a.advance()
	}
	for {
		switch a.phase {
		case phThink:
			a.phase = phSubmit
			a.idx = 0
			a.noted = false
		case phSubmit:
			if a.idx == len(a.reqs) {
				a.phase = phFence
				continue
			}
			rq := a.reqs[a.idx]
			if !a.noted {
				a.noteSubmit(a.eng.Now())
				a.noted = true
			}
			if rq.Trivial || a.Spec.Pipelined {
				// Fire and forget; completion feeds the fence counter (and,
				// for pipelined requests, the service stats).
				if _, ok := a.client.SubmitAsync(a.eng, rq.Kind, rq.Size, a.hook(rq)); ok {
					a.pending++
					a.advance()
					if lane {
						a.lane.Sleep(a.dw, a.laneFn)
					} else {
						a.eng.After(a.dw, a.stepFn)
					}
					return
				}
			} else if r, ok := a.client.SubmitAsync(a.eng, rq.Kind, rq.Size, a.blockDone); ok {
				a.awaiting = r
				return
			}
			// Refused: the channel is engaged (an App's client has no
			// trap mode and no virtual context). The refusal commits the
			// submission to the fault path at this instant (DESIGN.md
			// §14). The lane takes the fault at once; engine context
			// hands it to the lane at the back of the instant, the
			// position a signaled process wakes at.
			if lane {
				a.fault()
				return
			}
			if a.lane == nil {
				a.openLane()
			}
			a.lane.Yield(a.faultFn)
			return
		case phFence:
			// Frame fence: wait for every fire-and-forget completion of the
			// round, then recycle the retired requests.
			if a.pending > 0 {
				a.fencing = true
				return
			}
			a.fencing = false
			for i, r := range a.retire {
				r.Release()
				a.retire[i] = nil
			}
			a.retire = a.retire[:0]

			// Off-period for nonsaturating workloads: a fixed per-round
			// think time derived from the *standalone* active time, so
			// contention stretches the busy part of the cycle but not the
			// idle part.
			if off := a.Spec.OffTime(); off > 0 {
				a.phase = phOff
				a.eng.After(off, a.stepFn)
				return
			}
			a.endRound()
			return
		case phOff:
			a.endRound()
			return
		}
	}
}

// openLane creates the slow lane at the first refusal, so an app whose
// channels are never engaged pays nothing for it.
func (a *App) openLane() {
	a.lane = a.Task.NewCont()
	a.laneFn = func() { a.step(true) }
	a.faultFn = a.fault
	a.firedFn = func() { a.advance(); a.step(true) }
	a.storedFn = func() { a.lane.Wait(a.faulting.DoneGate(), a.blockedFn) }
	a.blockedFn = func() {
		r := a.faulting
		a.faulting = nil
		a.noteDone(r)
		r.Release()
		a.advance()
		a.step(true)
	}
}

// fault submits reqs[idx] through the committed fault path on the lane.
// A fire-and-forget request carries its completion hook into the fault
// and the lane steps on once the store lands; a blocking request waits
// on the lane for its completion.
func (a *App) fault() {
	rq := a.reqs[a.idx]
	if rq.Trivial || a.Spec.Pipelined {
		a.pending++
		a.client.SubmitFaulting(a.lane, rq.Kind, rq.Size, a.hook(rq), a.firedFn)
		return
	}
	a.faulting = a.client.SubmitFaulting(a.lane, rq.Kind, rq.Size, nil, a.storedFn)
}

// hook returns the completion hook of a fire-and-forget request.
func (a *App) hook(rq Req) func(*gpu.Request) {
	if rq.Trivial {
		return a.trivDone
	}
	return a.pipeDone
}

// advance moves the machine past a submitted request.
func (a *App) advance() {
	a.idx++
	a.noted = false
}

func (a *App) noteSubmit(now sim.Time) {
	if a.Observe && a.lastSubmit != 0 {
		a.InterArrival.Add(now.Sub(a.lastSubmit))
	}
	a.lastSubmit = now
}

func (a *App) noteDone(r *gpu.Request) {
	if r.Aborted {
		return
	}
	service := r.Completed.Sub(r.Started)
	if a.Observe {
		a.Service.Add(service)
	}
	m := a.perKind[r.Kind]
	if m == nil {
		m = &metrics.Mean{}
		a.perKind[r.Kind] = m
	}
	m.AddDuration(service)
}

// WaitReady blocks p until the app's setup syscalls have completed (or
// failed). Useful in tests that must order setup against assertions.
func (a *App) WaitReady(p *sim.Proc) { p.Wait(a.ready) }
