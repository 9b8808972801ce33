package gpu

import "repro/internal/sim"

// engine is one execution unit of the device. The main engine runs
// compute and graphics requests, one at a time, cycling round-robin among
// channels with pending requests and paying a context-switch cost between
// contexts. The DMA engine runs transfers concurrently with the main
// engine, which is how direct-access concurrency efficiency can exceed
// 1.0 in the paper's Figure 7.
//
// The engine is an event-driven state machine, not a process: it is
// always in exactly one of four states — idle (kick schedules a
// dispatch), switching (a context-switch timer is in flight), executing
// (a completion timer is in flight, current != nil), or completing (the
// completion event for the current instant is already scheduled). The
// hot path therefore costs two events per request (completion timer +
// completion processing) and no proc handoffs.
//
// Completion is deliberately two events, mirroring the retired process
// version (completion timer opened a gate, whose broadcast scheduled the
// engine's wakeup at the same instant): bookkeeping must stay in the
// second event so that model code already queued at the completion
// instant — kernel polls reading RefCount, sampling watchers — still
// observes pre-completion state, and so that an abort landing between
// the two events still converts the request into an aborted one.
type engine struct {
	dev      *Device
	name     string
	mainUnit bool // true for the exec engine: context-switch costs + graphics penalty

	channels []*Channel
	rr       int

	idle            bool     // parked; the next kick schedules a dispatch
	switching       *Channel // context-switch target while its timer is in flight
	current         *Request
	completePending bool // completion event scheduled for the current instant
	curTimer        sim.Timer
	lastCtx         *Context

	busy      sim.Duration
	busyStart sim.Time

	// Pre-bound state-transition closures, allocated once here so the
	// per-request path schedules them without allocating.
	dispatchFn func()
	timerFn    func()
	completeFn func()
	switchFn   func()
}

func newEngine(dev *Device, name string, mainUnit bool) *engine {
	en := &engine{dev: dev, name: name, mainUnit: mainUnit, idle: true}
	en.dispatchFn = en.dispatch
	en.timerFn = en.onTimer
	en.completeFn = en.doComplete
	en.switchFn = en.switchDone
	return en
}

func (en *engine) addChannel(ch *Channel) {
	en.channels = append(en.channels, ch)
}

func (en *engine) removeChannel(ch *Channel) {
	for i, c := range en.channels {
		if c == ch {
			en.channels = append(en.channels[:i], en.channels[i+1:]...)
			break
		}
	}
	if en.rr >= len(en.channels) {
		en.rr = 0
	}
}

// kick wakes the engine after new work arrives. Only an idle engine
// reacts; in every other state the current timer or pending completion
// event re-enters dispatch on its own. A kick from the tail of a plain
// event (the async doorbell delivery) into an otherwise-empty instant
// folds the dispatch inline — unobservable, since the scheduled
// dispatch would have run immediately next with nothing in between; a
// kick from process context always schedules, because the running
// process's continuation belongs to this instant too.
func (en *engine) kick() {
	if !en.idle {
		return
	}
	en.idle = false
	e := en.dev.eng
	if !e.InProcContext() && e.NextAfterNow() {
		en.dispatch()
		return
	}
	e.Schedule(e.Now(), en.dispatchFn)
}

// dispatch picks the next channel and either starts its head request,
// begins a context switch toward it, or parks the engine.
func (en *engine) dispatch() {
	ch := en.pickNext()
	if ch == nil {
		en.idle = true
		return
	}
	if en.mainUnit && ch.Ctx != en.lastCtx {
		en.switching = ch
		en.dev.eng.After(en.dev.cost.ContextSwitch, en.switchFn)
		return
	}
	en.start(ch.popRing())
}

// switchDone completes a context switch. The world may have changed
// during the switch (context killed, ring drained); re-dispatch then.
func (en *engine) switchDone() {
	ch := en.switching
	en.switching = nil
	en.lastCtx = ch.Ctx
	if ch.Ctx.dead || len(ch.ring) == ch.head {
		en.dispatch()
		return
	}
	en.start(ch.popRing())
}

// ready reports whether a channel has runnable work.
func ready(ch *Channel) bool { return !ch.Ctx.dead && len(ch.ring) > ch.head }

// pickNext chooses the next channel to serve. Uniform round-robin, except
// that with GraphicsPenalty > 1 a graphics channel competing with
// non-graphics work is only served once per penalty passes — the
// non-uniform internal arbitration the paper observed for OpenGL clients.
func (en *engine) pickNext() *Channel {
	n := len(en.channels)
	if n == 0 {
		return nil
	}
	penalty := en.dev.cfg.GraphicsPenalty
	hasNonGfx := false
	if en.mainUnit && penalty > 1 {
		for _, ch := range en.channels {
			if ready(ch) && ch.Kind != Graphics {
				hasNonGfx = true
				break
			}
		}
	}
	fallback := -1
	for i := 0; i < n; i++ {
		idx := (en.rr + i) % n
		ch := en.channels[idx]
		if !ready(ch) {
			continue
		}
		if fallback < 0 {
			fallback = idx
		}
		if en.mainUnit && penalty > 1 && ch.Kind == Graphics && hasNonGfx {
			if ch.skips < penalty-1 {
				ch.skips++
				continue
			}
			ch.skips = 0
		}
		en.rr = (idx + 1) % n
		return ch
	}
	if fallback >= 0 {
		// Every ready channel was a penalized graphics channel this pass;
		// serve one anyway rather than idling a busy device.
		en.rr = (fallback + 1) % n
		return en.channels[fallback]
	}
	return nil
}

// start begins executing one request. The nominal request size is scaled
// by the device's class speed: a consumer-class card takes longer over
// the same request than the reference K20. Requests of size Forever
// never finish on their own: the engine occupies the device until the
// owning context is killed.
func (en *engine) start(r *Request) {
	r.Started = en.dev.eng.Now()
	en.current = r
	en.busyStart = r.Started
	if r.Size < Forever {
		en.curTimer = en.dev.eng.After(en.dev.scaled(r.Size), en.timerFn)
	} else {
		en.curTimer = sim.Timer{}
	}
}

// onTimer fires when the current request's execution time elapses. It
// only schedules the completion event at the same instant — see the
// two-event completion note on the engine type. When no other event is
// queued for this instant the deferral is unobservable (nothing could
// run in between), so completion processing runs inline instead.
func (en *engine) onTimer() {
	en.completePending = true
	if en.dev.eng.NextAfterNow() {
		en.doComplete()
		return
	}
	en.dev.eng.Schedule(en.dev.eng.Now(), en.completeFn)
}

// doComplete retires the current request (completed or aborted) and
// dispatches the next one.
func (en *engine) doComplete() {
	en.completePending = false
	r := en.current
	end := en.dev.eng.Now()
	en.busy += end.Sub(r.Started)
	r.ch.Ctx.BusyTime += end.Sub(r.Started)
	en.current = nil
	en.curTimer = sim.Timer{}
	if r.Aborted {
		r.finish()
	} else {
		r.Completed = end
		r.ch.RefCount = r.Ref
		r.ch.Completions++
		r.finish()
	}
	if ob := en.dev.CompletionObserver; ob != nil {
		// Between retirement and the next dispatch the ring/staged state
		// is settled, so an observer may detach idle contexts here.
		ob(r)
	}
	en.dispatch()
}

// abortIfContext aborts the in-flight request if it belongs to ctx. If
// the completion event is already queued for this instant, the abort
// flag alone is enough: doComplete re-checks it.
func (en *engine) abortIfContext(ctx *Context) {
	if en.current != nil && en.current.ch.Ctx == ctx {
		en.current.Aborted = true
		en.curTimer.Stop() // inert for Forever requests (zero Timer)
		if !en.completePending {
			en.completePending = true
			en.dev.eng.Schedule(en.dev.eng.Now(), en.completeFn)
		}
	}
}

func (en *engine) totalBusy() sim.Duration {
	b := en.busy
	if en.current != nil {
		b += en.dev.eng.Now().Sub(en.busyStart)
	}
	return b
}
