package workload

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// LaunchInfiniteKernel starts the paper's denial-of-service adversary: a
// task that behaves normally for warmup rounds, then submits a compute
// request that never terminates. Under direct access this hangs the
// device; under the protected schedulers the kernel must identify and
// kill the task.
//
// It is an App whose rounds submit one blocking request each, at once,
// with no CPU time. Where its last warmup round ends, the next round's
// Begin starts the attack on the loop's lane and ends the loop.
func LaunchInfiniteKernel(k *neon.Kernel, warmupRounds int) *App {
	spec := Spec{Name: "InfiniteKernel", Area: "Adversarial", CPU: 2 * time.Microsecond,
		Mix: []Req{{Size: 50 * time.Microsecond, Kind: gpu.Compute, Count: 1}}}
	a := newApp(k, spec)
	a.launch(k, &infiniteKernel{App: a, warmup: warmupRounds})
	return a
}

// infiniteKernel is the InfiniteKernel's round content.
type infiniteKernel struct {
	*App
	warmup, rounds int
}

// Begin runs the warmup rounds, then attacks: an infinite loop on the
// device, submitted from the lane. The request goes back to its
// device's pool from its hook when the task's kill aborts it.
func (x *infiniteKernel) Begin(l *Loop, lane bool) {
	if x.rounds < x.warmup {
		x.rounds++
		l.Run(x.client, Req{}, lane)
		return
	}
	if !lane {
		l.Hop()
		return
	}
	l.Stop()
	x.client.SubmitDetachedOn(l.Lane(), gpu.Compute, gpu.Forever, (*gpu.Request).Release, func(*gpu.Request) {})
}

// Think submits each warmup round at once.
func (x *infiniteKernel) Think() (sim.Duration, bool) { return 0, false }

// HogResult reports what a channel-hog adversary managed to grab.
type HogResult struct {
	ContextsCreated int
	DeniedAt        error // the error that finally stopped it, if any
}

// LaunchChannelHog starts the Section 6.3 adversary: it greedily creates
// contexts (each with a compute and a DMA channel, as the paper observed)
// until the device or the OS policy refuses. The result gate opens when
// it is done grabbing. The setup syscalls are sleeps of a continuation
// of the hog's task, whose first step takes the place a spawned
// process's activation would.
func LaunchChannelHog(k *neon.Kernel, limit int) (*neon.Task, *HogResult, *sim.Gate) {
	t := k.NewTask("ChannelHog")
	res := &HogResult{}
	done := k.Engine().NewGate("hog-done")
	lane := t.NewCont()
	denied := func(err error) {
		res.DeniedAt = err
		done.Open()
	}
	var grab func()
	grab = func() {
		if res.ContextsCreated == limit {
			done.Open()
			return
		}
		k.CreateContextOn(lane, t, "hog", func(ctx *gpu.Context, err error) {
			if err != nil {
				denied(err)
				return
			}
			k.CreateChannelOn(lane, t, ctx, gpu.Compute, func(_ *neon.ChannelState, err error) {
				if err != nil {
					denied(err)
					return
				}
				k.CreateChannelOn(lane, t, ctx, gpu.DMA, func(_ *neon.ChannelState, err error) {
					if err != nil {
						denied(err)
						return
					}
					res.ContextsCreated++
					grab()
				})
			})
		})
	}
	lane.Yield(grab)
	return t, res, done
}

// GreedyBatcher returns a spec for the paper's introduction adversary: an
// application that batches its work into very large requests to hog a
// work-conserving device.
func GreedyBatcher(batch sim.Duration) Spec {
	s := Throttle(batch, 0)
	s.Name = "GreedyBatcher"
	s.Area = "Adversarial"
	return s
}
