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
	// proc park/unpark; the task's process survives as the slow
	// lane for submissions that must block (engaged channels, traps).
	eng        *sim.Engine
	dw         sim.Duration // cost.Model.DirectWrite, the doorbell latency
	reqs       []Req
	phase      int
	idx        int            // next request in the round's sequence
	noted      bool           // reqs[idx] already counted by noteSubmit
	pending    int            // fire-and-forget submissions not yet completed
	fencing    bool           // machine parked at the frame fence
	awaiting   *gpu.Request   // blocking request whose continuation resumes the machine
	slowFault  bool           // slow-lane handoff committed to the fault path (see toProc)
	retire     []*gpu.Request // completed fire-and-forget requests to recycle
	roundStart sim.Time
	slowGate   *sim.Gate
	stepFn     func()
	trivDone   func(*gpu.Request)
	pipeDone   func(*gpu.Request)
	blockDone  func(*gpu.Request)
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
	a.Task.Go("main", func(p *sim.Proc) { a.run(p, k) })
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

// run opens the client from process context, then drives the spec's
// round loop as a continuation-passing state machine: submissions ride
// the asynchronous doorbell fast path (userlib.SubmitAsync) and
// completions re-enter the machine in engine context, so a steady-state
// round costs zero proc park/unpark. The process survives as the
// machine's slow lane — when a submission needs process context
// (engaged channel, trap mode) the machine signals slowGate and this
// process replays the blocking submission, with its fault and trap
// charges, exactly as the pre-machine loop did.
//
// The machine reproduces the blocking loop's event timeline precisely:
// a fire-and-forget submission chains the next step After(DirectWrite)
// — the clock the old blocking store's sleep advanced — and a
// completion continuation re-enters via After(0), the same queue
// position the old done-gate broadcast gave the woken process.
func (a *App) run(p *sim.Proc, k *neon.Kernel) {
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
	a.slowGate = a.eng.NewGate("slow-" + a.Spec.Name)
	a.stepFn = func() { a.step(nil) }
	a.trivDone = func(r *gpu.Request) { a.oneDone(r, false) }
	a.pipeDone = func(r *gpu.Request) { a.oneDone(r, true) }
	a.blockDone = func(*gpu.Request) { a.eng.After(0, a.stepFn) }

	a.beginRound(p.Now())
	for a.Task.Alive {
		p.Wait(a.slowGate)
		a.step(p)
	}
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

// step advances the round machine. With p == nil it runs in engine
// context and must not block: a submission that needs process context
// hands off to the slow lane via slowGate. With p != nil it runs on the
// slow lane and uses the blocking submission paths directly, exactly as
// the pre-machine loop did.
func (a *App) step(p *sim.Proc) {
	if !a.Task.Alive {
		return
	}
	if r := a.awaiting; r != nil {
		// A blocking request's continuation brought us here. The request
		// is recycled: completion processing finished before this After(0)
		// step ran, and nothing else holds the pointer (sampling watchers
		// pin, making Release a no-op).
		a.awaiting = nil
		a.noteDone(r)
		r.Release()
		a.idx++
		a.noted = false
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
			fault := a.slowFault
			a.slowFault = false
			switch {
			case rq.Trivial || a.Spec.Pipelined:
				// Fire and forget; completion feeds the fence counter (and,
				// for pipelined requests, the service stats).
				hook := a.trivDone
				if !rq.Trivial {
					hook = a.pipeDone
				}
				if !fault {
					if _, ok := a.client.SubmitAsync(a.eng, rq.Kind, rq.Size, hook); ok {
						a.pending++
						a.idx++
						a.noted = false
						if p == nil {
							a.eng.After(a.dw, a.stepFn)
							return
						}
						p.Sleep(a.dw)
						continue
					}
					if p == nil {
						a.toProc(rq.Kind)
						return
					}
				}
				if fault {
					a.pending++
					if a.client.SubmitEngaged(p, rq.Kind, rq.Size, hook) == nil {
						a.pending--
					}
				} else if r := a.client.SubmitDetached(p, rq.Kind, rq.Size); r != nil {
					a.pending++
					if r.IsDone() {
						hook(r)
					} else {
						r.OnDone = hook
					}
				}
				a.idx++
				a.noted = false
			default:
				if !fault {
					if r, ok := a.client.SubmitAsync(a.eng, rq.Kind, rq.Size, a.blockDone); ok {
						a.awaiting = r
						return
					}
					if p == nil {
						a.toProc(rq.Kind)
						return
					}
				}
				var r *gpu.Request
				if fault {
					if r = a.client.SubmitEngaged(p, rq.Kind, rq.Size, nil); r != nil {
						p.Wait(r.DoneGate())
					}
				} else {
					r = a.client.SubmitSync(p, rq.Kind, rq.Size)
				}
				if r != nil {
					a.noteDone(r)
					r.Release()
				}
				a.idx++
				a.noted = false
			}
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

// toProc hands the machine to the slow-lane process, which is always
// parked on slowGate whenever the machine runs in engine context. The
// handoff is an event hop, and the scheduler may flip the channel's
// engagement within the same instant — so the fault-or-direct decision
// is committed here, at the refusal instant, and the slow lane honors
// it (SubmitEngaged) instead of re-checking a page that may have moved.
func (a *App) toProc(kind gpu.Kind) {
	a.slowFault = a.client.Engaged(kind)
	a.slowGate.Signal()
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
