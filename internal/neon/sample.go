package neon

import (
	"repro/internal/gpu"
	"repro/internal/sim"
)

// SampleResult is what a sampling run learned about a task.
type SampleResult struct {
	// Requests counts the requests that completed within the sampling
	// window, and Total sums their observed service times.
	Requests int
	Total    sim.Duration
	// Elapsed is how long the sampling window lasted.
	Elapsed sim.Duration
}

// Mean returns the average observed service time, or 0 if none completed.
func (s SampleResult) Mean() sim.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.Total / sim.Duration(s.Requests)
}

// sampleState is a kernel's sampling record.
type sampleState struct {
	k        *Kernel
	c        *sim.Cont
	t        *Task
	active   bool
	want     int
	start    sim.Time
	res      SampleResult
	gate     *sim.Gate // opens once want requests have been observed
	watchers []*watcher
	then     func(SampleResult)
	endFn    func() // the window's end, bound once per kernel
}

// watcher observes one sampled request's completion: a continuation
// that queues on the request's done gate and records its service time.
// It holds a pin on the request until it has observed it or the
// sampling run ends. Watchers come from a kernel slab and are pooled on
// the kernel.
type watcher struct {
	c   sim.Cont
	st  *sampleState
	req *gpu.Request

	// Continuation steps, bound once per watcher.
	armFn, observeFn func()
}

// arm queues the watcher on its request's done gate.
func (w *watcher) arm() { w.c.Wait(w.req.DoneGate(), w.observeFn) }

// observe records the completed request and ends the watcher's hold.
func (w *watcher) observe() {
	w.st.observe(w.req)
	w.req.Unpin()
}

// SampleOn gives the scheduler a measured look at task t's requests, as
// steps of c: with the task engaged (every submission intercepted),
// observed requests' service times are recorded until either maxReqs
// requests complete or maxDur elapses, whichever comes first, and then
// receives the result as a step of c. The caller must have arranged
// exclusive device access for t (that is the point of the engagement
// episode in Disengaged Fair Queueing). A kernel runs one sampling run
// at a time.
//
// Completion times are observed per request; the prototype achieves this
// by running its polling service at high rate during the short sampling
// window, so no additional cost is charged beyond the per-request
// interception already paid by the fault path.
func (k *Kernel) SampleOn(c *sim.Cont, t *Task, maxDur sim.Duration, maxReqs int, then func(SampleResult)) {
	st := &k.sample
	if st.k == nil {
		st.k, st.gate = k, k.eng.NewGate("sample")
		st.endFn = st.end
	}
	st.c, st.t, st.then = c, t, then
	st.active, st.want, st.start, st.res = true, maxReqs, k.eng.Now(), SampleResult{}
	st.gate.Close()
	t.sample = st
	for _, cs := range t.channels {
		cs.sampling = true
		cs.watchedRef = cs.Ch.LastSubmittedRef
		if cs.vc != nil {
			k.muxNote(cs.vc)
		}
	}
	c.WaitTimeout(st.gate, maxDur, st.endFn)
}

// end closes the sampling window: it stops the watchers still waiting,
// recycles every watcher, and hands the result on. A logical context
// that the window's end leaves evictable is counted, not pumped for: a
// waiter gets its slot at the next completion, unpin or exit.
func (st *sampleState) end() {
	k, t := st.k, st.t
	st.active = false
	if t.Alive {
		for _, cs := range t.channels {
			cs.sampling = false
			if cs.vc != nil {
				k.muxNote(cs.vc)
			}
		}
	}
	t.sample = nil
	for _, w := range st.watchers {
		if w.c.Stop() {
			// Still waiting: the request was never observed.
			w.req.Unpin()
		}
		w.st, w.req = nil, nil
		k.watchFree = append(k.watchFree, w)
	}
	st.watchers = st.watchers[:0]
	res, then := st.res, st.then
	res.Elapsed = k.eng.Now().Sub(st.start)
	st.c, st.t, st.then = nil, nil, nil
	then(res)
}

// watchStaged registers completion watchers for requests newly staged on
// a sampled channel. Called from the fault handler. Each watcher arms at
// the back of the current instant, the position a spawned process's
// first activation takes.
func (k *Kernel) watchStaged(cs *ChannelState) {
	st := cs.Task.sample
	if st == nil || !st.active {
		return
	}
	for _, r := range cs.Ch.StagedRequests() {
		if r.Ref <= cs.watchedRef {
			continue
		}
		cs.watchedRef = r.Ref
		// The watcher reads timing fields after the done gate opens, so
		// the request must not recycle before the watcher is done with it.
		r.Pin()
		var w *watcher
		if n := len(k.watchFree); n > 0 {
			w = k.watchFree[n-1]
			k.watchFree = k.watchFree[:n-1]
		} else {
			w = k.watchSlab.New()
			k.eng.InitCont(&w.c)
			w.armFn, w.observeFn = w.arm, w.observe
		}
		w.st, w.req = st, r
		st.watchers = append(st.watchers, w)
		w.c.Yield(w.armFn)
	}
}

func (st *sampleState) observe(r *gpu.Request) {
	if !st.active || r.Aborted {
		return
	}
	st.res.Requests++
	st.res.Total += r.Completed.Sub(r.Started)
	if st.res.Requests >= st.want {
		st.gate.Open()
	}
}
