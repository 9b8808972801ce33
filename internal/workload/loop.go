package workload

import (
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// Loop is the closed-loop round machine (DESIGN.md §14): one
// application thread's round loop, run as an engine-driven state
// machine on the asynchronous submission path, so a steady-state round
// costs no proc park/unpark. App and fleet.Tenant embed it and supply
// only the content of their rounds (Round).
//
// A round begins (Round.Begin hands the loop the round's client and an
// optional preliminary blocking request), thinks, submits the spec's
// requests in order, waits at the frame fence for every fire-and-forget
// completion, and sleeps the off-period of a nonsaturating spec. A
// fire-and-forget submission chains the next step After(DirectWrite),
// the clock a blocking store's sleep would advance, and a completion
// re-enters via After(0), the queue position a done-gate broadcast
// would give a woken process. A fire-and-forget request goes back to
// its device's pool from its own completion hook
// (gpu.Request.OnDone), a blocking one once the machine has stepped
// past it, so the fence waits on a count alone.
//
// Anything that must block runs on the lane, a continuation: the
// steps a Round takes on it (a first-touch client open), and every
// submission SubmitAsync refuses. The refusal commits the submission at
// its instant: to the fault path (userlib.Client.SubmitEngagedOn) when
// the register was engaged, since the scheduler may disengage within
// the instant; otherwise to the uncommitted forms, SubmitDetachedOn for
// fire-and-forget requests and SubmitSyncOn for blocking ones. In
// engine context the loop hands the work to the lane at the back of
// the instant, where a signaled process would wake; on the lane it
// runs at once, and the lane keeps stepping the machine until it waits
// on an engine event again. Each lane step sits where a slow-lane
// process's wake-up would.
type Loop struct {
	// Rounds and RoundTime accumulate since the last ResetStats.
	Rounds    int64
	RoundTime sim.Duration

	// m is the machine, allocated by Start: an owner that never starts
	// its loop, such as the serving layer's tenants, pays one pointer.
	m *machine
}

// machine is a started Loop's state.
type machine struct {
	loop      *Loop
	round     Round
	eng       *sim.Engine
	lane      *sim.Cont
	task      *neon.Task // whose death ends the loop; nil when the loop outlives its tasks
	reqs      []Req
	pipelined bool
	off       sim.Duration

	client     *userlib.Client
	dw         sim.Duration // the client's cost.Model.DirectWrite, the doorbell latency
	pre        Req          // the round's preliminary blocking request, if Size > 0
	phase      uint8
	idx        int          // next request in the round's sequence
	commit     bool         // the refused submission is committed to the fault path
	fencing    bool         // machine parked at the frame fence
	stopped    bool         // Stop was called
	beginning  bool         // Round.Begin is running inline in a step
	pending    int          // fire-and-forget submissions not yet completed
	awaiting   *gpu.Request // blocking request whose completion resumes the machine
	roundStart sim.Time

	// Pre-bound steps and completion hooks; the lane's are bound at its
	// first use, so a loop that never takes it pays nothing for them.
	stepFn    func()
	trivDone  func(*gpu.Request)
	pipeDone  func(*gpu.Request)
	blockDone func(*gpu.Request)

	laneFn, submitFn  func()
	firedFn, storedFn func(*gpu.Request)
}

// Round is the content of a Loop's rounds, supplied by the loop's
// owner.
type Round interface {
	// Begin starts a round, in engine context or, when lane is true, as
	// a step of the loop's lane. It ends by calling l.Run with the
	// round's client, l.Hop to be called again on the lane, or l.Stop;
	// on the lane it may instead take steps of l.Lane() that end in Run
	// or Stop.
	Begin(l *Loop, lane bool)
	// Think returns the round's CPU time, spent after its preliminary
	// request and before its submissions; ok false submits at once.
	Think() (d sim.Duration, ok bool)
	// Submitted is called with the instant each request is submitted.
	Submitted(now sim.Time)
	// Served is called with every completed blocking request and every
	// completed pipelined one, before it is recycled; trivial requests'
	// completions are unobservable.
	Served(r *gpu.Request)
	// Fenced is called once every request of the round has completed,
	// before the off-period.
	Fenced()
}

// Round-machine phases.
const (
	phBegin  uint8 = iota // round start: Round.Begin
	phPre                 // the preliminary request
	phThink               // think timer next
	phSubmit              // submitting reqs[idx:]
	phFence               // waiting for pending to reach zero
	phOff                 // off-period timer in flight
)

// Start runs the loop's first round for r with the spec's requests. It
// must run as a step of lane, which stays the loop's lane for life. A
// non-nil task ends the loop when it dies.
func (l *Loop) Start(r Round, eng *sim.Engine, lane *sim.Cont, task *neon.Task, spec Spec) {
	m := &machine{loop: l, round: r, eng: eng, lane: lane, task: task}
	l.m = m
	m.reqs = spec.Requests()
	m.pipelined = spec.Pipelined
	m.off = spec.OffTime()
	m.stepFn = func() { m.step(false) }
	m.trivDone = func(r *gpu.Request) { m.oneDone(r, false) }
	m.pipeDone = func(r *gpu.Request) { m.oneDone(r, true) }
	m.blockDone = func(*gpu.Request) { m.eng.After(0, m.stepFn) }
	m.phase = phBegin
	m.step(true)
}

// Run continues a round Begin started: it submits on c, after the
// blocking request pre if pre.Size > 0. lane reports whether the caller
// runs as a step of the loop's lane.
func (l *Loop) Run(c *userlib.Client, pre Req, lane bool) {
	m := l.m
	if c != m.client {
		m.client = c
		m.dw = c.Kernel().Costs().DirectWrite
	}
	m.pre = pre
	m.phase = phThink
	if pre.Size > 0 {
		m.phase = phPre
	}
	if !m.beginning {
		m.step(lane)
	}
}

// Hop calls Round.Begin again as a step of the lane, at the back of
// the current instant.
func (l *Loop) Hop() {
	m := l.m
	m.bindLane()
	m.lane.Yield(m.laneFn)
}

// Stop ends the loop: it begins no further step.
func (l *Loop) Stop() { l.m.stopped = true }

// Lane returns the loop's lane.
func (l *Loop) Lane() *sim.Cont { return l.m.lane }

// AvgRound returns the mean round time since the last ResetStats.
func (l *Loop) AvgRound() sim.Duration {
	if l.Rounds == 0 {
		return 0
	}
	return l.RoundTime / sim.Duration(l.Rounds)
}

// alive reports whether the loop's task, if any, is alive.
func (m *machine) alive() bool { return m.task == nil || m.task.Alive }

// step advances the round machine, in engine context or, when lane is
// true, as a step of the lane. Engine context must not block: blocking
// work hands off to the lane.
func (m *machine) step(lane bool) {
	if m.stopped || !m.alive() {
		return
	}
	if r := m.awaiting; r != nil {
		// A blocking request's completion brought us here: completion
		// processing finished before this After(0) step ran. A sampling
		// watcher's pin, if any, defers the recycle until the watcher has
		// observed it.
		m.awaiting = nil
		m.blockingDone(r)
	}
	for {
		switch m.phase {
		case phBegin:
			m.roundStart = m.eng.Now()
			m.beginning = true
			m.round.Begin(m.loop, lane)
			m.beginning = false
			if m.phase == phBegin {
				return // Begin hopped, stopped, or took steps of the lane
			}
		case phPre:
			m.submit(lane)
			return
		case phThink:
			m.phase, m.idx = phSubmit, 0
			if d, ok := m.round.Think(); ok {
				m.eng.After(d, m.stepFn)
				return
			}
		case phSubmit:
			if m.idx == len(m.reqs) {
				m.phase = phFence
				continue
			}
			m.round.Submitted(m.eng.Now())
			m.submit(lane)
			return
		case phFence:
			// Frame fence: wait for every fire-and-forget completion of
			// the round.
			if m.pending > 0 {
				m.fencing = true
				return
			}
			m.fencing = false
			m.round.Fenced()
			// Off-period for nonsaturating specs: a fixed per-round think
			// time derived from the standalone active time, so contention
			// stretches the busy part of the cycle but not the idle part.
			if m.off > 0 {
				m.phase = phOff
				m.eng.After(m.off, m.stepFn)
				return
			}
			m.endRound()
		case phOff:
			m.endRound()
		}
	}
}

// current returns the request the machine is submitting and whether
// it blocks the round until it completes: the preliminary request
// always does, a round request unless it is trivial or pipelined.
func (m *machine) current() (Req, bool) {
	if m.phase == phPre {
		return m.pre, true
	}
	rq := m.reqs[m.idx]
	return rq, !rq.Trivial && !m.pipelined
}

// submit submits the current request on the fast path; the machine's
// next step is then an event, or the lane's when the fast path
// refuses.
func (m *machine) submit(lane bool) {
	rq, blocking := m.current()
	if !blocking {
		// Fire and forget; completion feeds the fence counter (and, for
		// pipelined requests, Round.Served).
		if _, ok := m.client.SubmitAsync(m.eng, rq.Kind, rq.Size, m.hook(rq)); ok {
			m.pending++
			m.advance()
			if lane {
				m.bindLane()
				m.lane.Sleep(m.dw, m.laneFn)
			} else {
				m.eng.After(m.dw, m.stepFn)
			}
			return
		}
	} else if r, ok := m.client.SubmitAsync(m.eng, rq.Kind, rq.Size, m.blockDone); ok {
		m.awaiting = r
		return
	}
	// Refused: commit the submission at this instant (DESIGN.md §14).
	m.commit = m.client.Engaged(rq.Kind)
	m.bindLane()
	if lane {
		m.laneSubmit()
	} else {
		m.lane.Yield(m.submitFn)
	}
}

// laneSubmit submits the current request as steps of the lane, in the
// form the refusal committed it to.
func (m *machine) laneSubmit() {
	rq, blocking := m.current()
	switch {
	case !blocking:
		m.pending++
		if m.commit {
			m.client.SubmitEngagedOn(m.lane, rq.Kind, rq.Size, m.hook(rq), m.firedFn)
		} else {
			m.client.SubmitDetachedOn(m.lane, rq.Kind, rq.Size, m.hook(rq), m.firedFn)
		}
	case m.commit:
		m.client.SubmitEngagedOn(m.lane, rq.Kind, rq.Size, nil, m.storedFn)
	default:
		m.client.SubmitSyncOn(m.lane, rq.Kind, rq.Size, m.storedFn)
	}
}

// bindLane binds the lane's steps at the loop's first use of it.
func (m *machine) bindLane() {
	if m.laneFn != nil {
		return
	}
	m.laneFn = func() { m.step(true) }
	m.submitFn = m.laneSubmit
	// A fire-and-forget store landed; nil means the task died before
	// its context could attach, and nothing was staged.
	m.firedFn = func(r *gpu.Request) {
		if r == nil {
			m.pending--
		}
		m.advance()
		m.step(true)
	}
	// A blocking request's store landed, or for SubmitSyncOn the
	// request completed: the lane steps on once it has completed.
	m.storedFn = func(r *gpu.Request) {
		if r == nil {
			m.advance()
			m.step(true)
			return
		}
		m.awaiting = r
		m.lane.Wait(r.DoneGate(), m.laneFn)
	}
}

// blockingDone retires a completed blocking request and moves past it.
func (m *machine) blockingDone(r *gpu.Request) {
	if !r.Aborted {
		m.round.Served(r)
	}
	r.Release()
	m.advance()
}

// oneDone is the completion continuation of fire-and-forget submissions
// (trivial and pipelined requests). It runs in engine context inside the
// request's finish, which lets it release the request
// (gpu.Request.OnDone).
func (m *machine) oneDone(r *gpu.Request, observe bool) {
	m.pending--
	if observe && !r.Aborted {
		m.round.Served(r)
	}
	r.Release()
	if m.fencing && m.pending == 0 && m.alive() {
		m.eng.After(0, m.stepFn)
	}
}

// hook returns the completion hook of a fire-and-forget request.
func (m *machine) hook(rq Req) func(*gpu.Request) {
	if rq.Trivial {
		return m.trivDone
	}
	return m.pipeDone
}

// advance moves the machine past the submitted request: the
// preliminary request yields to the think phase, a round request to the
// next request in the sequence.
func (m *machine) advance() {
	if m.phase == phPre {
		m.phase = phThink
		return
	}
	m.idx++
}

// endRound accounts the finished round; the step loop then begins the
// next one in the same turn.
func (m *machine) endRound() {
	now := m.eng.Now()
	m.loop.Rounds++
	m.loop.RoundTime += now.Sub(m.roundStart)
	m.phase = phBegin
}
