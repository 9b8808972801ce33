package neon

import (
	"repro/internal/gpu"
	"repro/internal/sim"
)

// Task is the resource principal to which fair service is provided — an
// OS process in the prototype. It owns GPU contexts and channels, runs
// one or more simulated processes (threads), and carries the accounting
// state the schedulers maintain for it.
type Task struct {
	ID    gpu.TaskID
	Name  string
	Alive bool

	// Weight is the task's fair-share weight: under contention a
	// fair-queueing scheduler grants service in proportion to it (a
	// weight-4 task receives four times a weight-1 task's share), because
	// every ledger charges the task's virtual time at charge/Weight. Zero
	// or negative means the default weight of 1 — equal shares, the
	// paper's regime. Set it before the task submits work; schedulers
	// read it through ShareWeight at every charging step.
	Weight float64

	// ExitReason records how the task ended ("exited" or "killed: ...").
	ExitReason string

	kernel *Kernel
	// threads are the task's registered threads, stopped when it exits:
	// *sim.Proc from Go and *sim.Cont from NewCont. One slice holds both
	// because most tasks, a virtual tenant's among them, have none.
	threads  []any
	contexts []*gpu.Context
	channels []*ChannelState

	// vctxs are the task's logical contexts under virtual-context
	// multiplexing (mux.go); empty for raw clients.
	vctxs []*VContext

	// retiredBusy and retiredDone preserve busy time and completion
	// counts of hardware contexts that were gracefully detached by the
	// mux, so BusyTime and CompletedRequests stay monotone across
	// detach/reattach cycles.
	retiredBusy sim.Duration
	retiredDone int64

	// gate is broadcast whenever scheduler state affecting this task
	// changes; faults waiting for admission re-test it.
	gate sim.Gate

	// The first backing arrays of contexts, channels and vctxs.
	ctx0 [1]*gpu.Context
	ch0  [1]*ChannelState
	vc0  [1]*VContext

	// sample is the in-progress sampling run, if any.
	sample *sampleState
}

// Go spawns a thread of this task. Threads are registered so that killing
// the task unwinds them.
func (t *Task) Go(name string, body func(p *sim.Proc)) *sim.Proc {
	p := t.kernel.eng.Spawn(t.Name+"/"+name, body)
	t.threads = append(t.threads, p)
	return p
}

// NewCont returns a continuation thread of this task (sim.Cont): the
// callback-form counterpart of Go. Killing the task stops it, as it
// unwinds the task's processes, so none of its pending steps runs.
func (t *Task) NewCont() *sim.Cont {
	c := t.kernel.eng.NewCont()
	t.threads = append(t.threads, c)
	return c
}

// Gate returns the task's scheduler wait gate. Faulting submissions
// wait on it for admission (Admitter), and schedulers broadcast it when
// their decision for the task may have changed.
func (t *Task) Gate() *sim.Gate { return &t.gate }

// ShareWeight returns the task's effective fair-share weight: Weight, or
// 1 when Weight is unset (zero or negative). Schedulers divide every
// virtual-time charge by it, so service under contention is proportional
// to it.
func (t *Task) ShareWeight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// Channels returns the kernel's per-channel state for this task.
func (t *Task) Channels() []*ChannelState { return t.channels }

// Virtualized reports whether the task's GPU access goes through the
// virtual-context mux. A virtualized task with no channels is detached
// (holding no hardware context), not uninitialized.
func (t *Task) Virtualized() bool { return len(t.vctxs) > 0 }

// removeChannel drops the kernel channel state from the task (mux
// detach path).
func (t *Task) removeChannel(cs *ChannelState) {
	for i, x := range t.channels {
		if x == cs {
			t.channels = append(t.channels[:i], t.channels[i+1:]...)
			return
		}
	}
}

// removeContext drops a hardware context from the task, banking its
// busy time (mux detach path).
func (t *Task) removeContext(ctx *gpu.Context) {
	for i, x := range t.contexts {
		if x == ctx {
			t.retiredBusy += ctx.BusyTime
			t.contexts = append(t.contexts[:i], t.contexts[i+1:]...)
			return
		}
	}
}

// Contexts returns the task's GPU contexts.
func (t *Task) Contexts() []*gpu.Context { return t.contexts }

// Exit ends the task voluntarily, releasing all its resources.
func (t *Task) Exit() { t.exit("exited") }

// exit tears the task down with the given reason.
func (t *Task) exit(reason string) {
	if !t.Alive {
		return
	}
	t.Alive = false
	t.ExitReason = reason
	t.kernel.liveStale = true
	for _, th := range t.threads { // processes first, then continuations
		if p, ok := th.(*sim.Proc); ok {
			p.Kill()
		}
	}
	for _, th := range t.threads {
		if c, ok := th.(*sim.Cont); ok {
			c.Stop()
		}
	}
	t.kernel.dev.KillOwner(t.ID)
	for _, cs := range t.channels {
		delete(t.kernel.byPage, cs.Ch.Reg)
	}
	t.channels = nil
	t.contexts = nil
	t.kernel.muxTaskExited(t)
	// Wake anything blocked on scheduler state for this task.
	t.gate.Broadcast()
	t.kernel.sched.TaskExited(t)
}

// BusyTime returns the task's cumulative device busy time across its
// contexts. This is the hardware statistic the paper asks vendors to
// export; only oracle scheduler variants and experiment reporting may
// read it.
func (t *Task) BusyTime() sim.Duration {
	b := t.retiredBusy
	for _, ctx := range t.contexts {
		b += ctx.BusyTime
	}
	return b
}

// CompletedRequests returns the cumulative completion count across the
// task's channels, as observable from reference counters.
func (t *Task) CompletedRequests() int64 {
	n := t.retiredDone
	for _, cs := range t.channels {
		n += cs.Ch.Completions
	}
	return n
}

// PendingRequests returns the number of submitted-but-unfinished requests
// across the task's channels.
func (t *Task) PendingRequests() int {
	n := 0
	for _, cs := range t.channels {
		n += cs.Ch.Pending()
	}
	return n
}
