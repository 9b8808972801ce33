package workload

import (
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// App is a running application instance: a kernel task executing its
// spec's round loop forever (until killed or the simulation stops). The
// round loop is the embedded Loop; App supplies its rounds' content —
// the client opened at setup and the spec's CPU time — and its request
// statistics.
type App struct {
	Loop

	Spec Spec
	Task *neon.Task

	// Observe enables Figure 2 instrumentation.
	Observe      bool
	InterArrival metrics.Log2Hist
	Service      metrics.Log2Hist
	perKind      map[gpu.Kind]*metrics.Mean

	client     *userlib.Client
	lastSubmit sim.Time
	setupErr   error
}

// Launch creates a task named after the spec and starts its round loop.
// The returned App accumulates statistics as the simulation advances.
func Launch(k *neon.Kernel, spec Spec) *App {
	a := newApp(k, spec)
	a.launch(k, a)
	return a
}

// newApp creates the app and its task, not yet started.
func newApp(k *neon.Kernel, spec Spec) *App {
	a := &App{Spec: spec, perKind: make(map[gpu.Kind]*metrics.Mean)}
	a.Task = k.NewTask(spec.Name)
	return a
}

// launch opens the app's client on a continuation of its task, whose
// first step takes the place a spawned setup process's activation
// would, then runs the round loop with r's content on the same
// continuation as the loop's lane. The setup syscalls are sleeps of
// the lane; killing the task stops it.
func (a *App) launch(k *neon.Kernel, r Round) {
	kinds := a.Spec.Channels
	if len(kinds) == 0 {
		kinds = []gpu.Kind{gpu.Compute}
	}
	lane := a.Task.NewCont()
	lane.Yield(func() {
		userlib.OpenOn(lane, k, a.Task, a.Spec.Name, kinds, func(c *userlib.Client, err error) {
			if err != nil {
				a.setupErr = err
				return
			}
			a.client = c
			a.Start(r, k.Engine(), lane, a.Task, a.Spec)
		})
	})
}

// SetupError returns any context/channel allocation failure.
func (a *App) SetupError() error { return a.setupErr }

// Alive reports whether the app's task is still running.
func (a *App) Alive() bool { return a.Task.Alive }

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

// Begin runs every round on the client opened at setup.
func (a *App) Begin(l *Loop, lane bool) { l.Run(a.client, Req{}, lane) }

// Think returns the spec's per-round CPU time; a zero one still costs
// the round an event hop.
func (a *App) Think() (sim.Duration, bool) { return a.Spec.CPU, true }

// Submitted records the inter-arrival time of submissions.
func (a *App) Submitted(now sim.Time) {
	if a.Observe && a.lastSubmit != 0 {
		a.InterArrival.Add(now.Sub(a.lastSubmit))
	}
	a.lastSubmit = now
}

// Served records a completed request's service time.
func (a *App) Served(r *gpu.Request) {
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

// Fenced does nothing: an app's rounds hold no placement.
func (a *App) Fenced() {}
