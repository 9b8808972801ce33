package core

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// TestDFQMultiChannelSampleTarget: combined compute/graphics tasks get
// the larger sampling request target (96 vs 32), per Section 5.2.
func TestDFQMultiChannelSampleTarget(t *testing.T) {
	cfg := DefaultDFQConfig()
	sched := NewDisengagedFairQueueing(cfg)
	h := newHarness(t, sched)

	multi := h.k.NewTask("multi")
	multi.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, h.k, multi, "multi", gpu.Compute, gpu.Graphics)
		if err != nil {
			return
		}
		for multi.Alive {
			client.SubmitSync(p, gpu.Compute, 5*time.Microsecond)
			client.SubmitSync(p, gpu.Graphics, 5*time.Microsecond)
		}
	})
	h.eng.RunFor(300 * time.Millisecond)
	s := sched.st.get(multi)
	if s == nil {
		t.Fatal("no scheduler state for the task")
	}
	// With 5us requests a 5ms window could hold far more than 96; the
	// early-stop target must have been the multi-channel one.
	if s.sampledRequests <= cfg.SampleRequests {
		t.Fatalf("sampled %d requests; multi-channel tasks should use the %d target",
			s.sampledRequests, cfg.SampleRequestsMulti)
	}
	if s.sampledRequests > cfg.SampleRequestsMulti {
		t.Fatalf("sampled %d > %d", s.sampledRequests, cfg.SampleRequestsMulti)
	}
}

// TestDFQBarrierBlocksEveryone: during a barrier no task may submit.
func TestDFQBarrierBlocksEveryone(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	a := h.startWorker("a", 100*time.Microsecond)
	b := h.startWorker("b", 100*time.Microsecond)
	violations := 0
	var probe func()
	probe = func() {
		if sched.mode == dfqBarrier {
			for _, w := range []*worker{a, b} {
				for _, cs := range w.task.Channels() {
					if cs.Ch.Reg.Present() {
						violations++
					}
				}
			}
		}
		h.eng.After(100*time.Microsecond, probe)
	}
	h.eng.After(0, probe)
	h.eng.RunFor(300 * time.Millisecond)
	if violations != 0 {
		t.Fatalf("%d unprotected channels observed during barriers", violations)
	}
}

// TestDFQSamplingExclusive: while task A is being sampled, task B's
// channels stay protected and B's submissions block.
func TestDFQSamplingExclusive(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	a := h.startWorker("a", 100*time.Microsecond)
	b := h.startWorker("b", 100*time.Microsecond)
	violations := 0
	var probe func()
	probe = func() {
		if sched.mode == dfqSampling && sched.sampled != nil {
			var other *neon.Task
			if sched.sampled == a.task {
				other = b.task
			} else if sched.sampled == b.task {
				other = a.task
			}
			if other != nil && other.PendingRequests() > 0 {
				violations++
			}
		}
		h.eng.After(50*time.Microsecond, probe)
	}
	h.eng.After(0, probe)
	h.eng.RunFor(300 * time.Millisecond)
	if violations != 0 {
		t.Fatalf("%d submissions from non-sampled tasks during sampling", violations)
	}
}

// TestDFQDeniedTaskBlockedDuringFreeRun: denial is enforced by
// protection, not cooperation.
func TestDFQDeniedTaskBlockedDuringFreeRun(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	small := h.startWorker("small", 20*time.Microsecond)
	big := h.startWorker("big", 1700*time.Microsecond)
	violations := 0
	var probe func()
	probe = func() {
		if sched.mode == dfqFreeRun {
			for _, w := range []*worker{small, big} {
				if sched.Denied(w.task) {
					for _, cs := range w.task.Channels() {
						if cs.Ch.Reg.Present() {
							violations++
						}
					}
				}
			}
		}
		h.eng.After(200*time.Microsecond, probe)
	}
	h.eng.After(0, probe)
	h.eng.RunFor(500 * time.Millisecond)
	if sched.Denials == 0 {
		t.Skip("no denials observed in this window")
	}
	if violations != 0 {
		t.Fatalf("%d denied-but-unprotected channel observations", violations)
	}
}

// TestDFQActiveAtBarrierSeesWaitingFault: a submission that waits in
// the fault handler for admission — a continuation queued on the task's
// gate, with nothing on the device — still marks its task active at the
// barrier, because Gate.Waiters counts every continuation queued on the
// gate.
func TestDFQActiveAtBarrierSeesWaitingFault(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	task := h.k.NewTask("waiter")
	var client *userlib.Client
	task.Go("setup", func(p *sim.Proc) {
		client, _ = userlib.Open(p, h.k, task, "waiter", gpu.Compute)
	})
	stepUntil := func(what string, cond func() bool) {
		t.Helper()
		limit := h.eng.Now().Add(time.Second)
		for !cond() {
			if h.eng.Now() > limit || !h.eng.Step() {
				t.Fatalf("never reached: %s", what)
			}
		}
	}
	stepUntil("free run", func() bool { return client != nil && sched.mode == dfqFreeRun })
	// Deny the idle task mid free run, so its next submission faults
	// and waits for admission through the next barrier.
	sched.st.get(task).denied = true
	h.k.Engage(task)
	client.SubmitEngagedOn(task.NewCont(), gpu.Compute, 20*time.Microsecond, nil, func(*gpu.Request) {})
	stepUntil("barrier", func() bool { return sched.mode == dfqBarrier })
	if task.PendingRequests() != 0 || h.k.TotalFaults != 1 {
		t.Fatalf("%d requests on the device, %d faults; want the one fault still waiting",
			task.PendingRequests(), h.k.TotalFaults)
	}
	if !sched.st.get(task).activeAtBarrier {
		t.Fatal("task with a fault waiting in the handler was not active at the barrier")
	}
}
