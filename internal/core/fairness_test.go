package core

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// openClient opens a single-compute-channel client for a test worker.
func openClient(p *sim.Proc, h *harness, w *worker) (*userlib.Client, error) {
	c, err := userlib.Open(p, h.k, w.task, w.task.Name, gpu.Compute)
	w.client = c
	return c, err
}

// TestDFQIdleTaskForfeitsCredit verifies the paper's step 2: a task that
// sits idle does not bank resource credit it can later burn in a burst.
// A late-starting task must share the device roughly evenly from the
// moment it starts, not claim an exclusive catch-up period.
func TestDFQIdleTaskForfeitsCredit(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	early := h.startWorker("early", 200*time.Microsecond)

	// The late task opens its channel immediately but issues nothing for
	// 400ms — plenty of time for "credit" to accrue if the scheduler
	// wrongly let virtual time lag for idle tasks.
	late := &worker{}
	late.task = h.k.NewTask("late")
	late.task.Go("main", func(p *sim.Proc) {
		client, err := openClient(p, h, late)
		if err != nil {
			return
		}
		p.Sleep(400 * time.Millisecond)
		for late.task.Alive {
			client.SubmitSync(p, gpu.Compute, 200*time.Microsecond)
			late.done++
		}
	})

	h.eng.RunFor(400 * time.Millisecond)
	earlyBusyAtStart := early.task.BusyTime()
	lateBusyAtStart := late.task.BusyTime()
	h.eng.RunFor(400 * time.Millisecond)

	earlyDelta := float64(early.task.BusyTime() - earlyBusyAtStart)
	lateDelta := float64(late.task.BusyTime() - lateBusyAtStart)
	share := lateDelta / (earlyDelta + lateDelta)
	if share > 0.62 {
		t.Fatalf("late task claimed %.2f of the device after idling; credit not forfeited", share)
	}
	if share < 0.35 {
		t.Fatalf("late task got only %.2f; it should share evenly going forward", share)
	}
}

// TestOracleKillsInfiniteKernel: the barrier-free scheduler still
// enforces the run limit.
func TestOracleKillsInfiniteKernel(t *testing.T) {
	sched := NewOracleFairQueueing(10 * time.Millisecond)
	h := newHarness(t, sched)
	h.k.RequestRunLimit = 20 * time.Millisecond
	attacker := h.k.NewTask("attacker")
	attacker.Go("main", func(p *sim.Proc) {
		client, err := openClient(p, h, &worker{task: attacker})
		if err != nil {
			return
		}
		client.SubmitSync(p, gpu.Compute, gpu.Forever)
	})
	victim := h.startWorker("victim", 50*time.Microsecond)
	h.eng.RunFor(200 * time.Millisecond)
	if attacker.Alive {
		t.Fatal("oracle never killed the infinite kernel")
	}
	if victim.done == 0 {
		t.Fatal("victim made no progress after the kill")
	}
}

// TestThreeWayFairness: fairness is not a two-task special case.
func TestThreeWayFairness(t *testing.T) {
	sched := NewDisengagedTimeslice(DefaultSlice)
	h := newHarness(t, sched)
	ws := []*worker{
		h.startWorker("a", 20*time.Microsecond),
		h.startWorker("b", 200*time.Microsecond),
		h.startWorker("c", 2000*time.Microsecond),
	}
	h.eng.RunFor(2 * time.Second)
	var total float64
	for _, w := range ws {
		total += float64(w.task.BusyTime())
	}
	for _, w := range ws {
		share := float64(w.task.BusyTime()) / total
		if share < 0.28 || share > 0.39 {
			t.Errorf("%s share = %.2f, want ~1/3", w.task.Name, share)
		}
	}
}
