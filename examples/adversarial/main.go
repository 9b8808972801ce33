// Adversarial: what happens when applications misbehave. Demonstrates
// the three attacks from the paper and the OS-level defenses:
//
//  1. an infinite-loop kernel (device occupation) — killed via the
//     request run limit;
//
//  2. greedy batching (hogging a work-conserving device with huge
//     requests) — neutralized by fair scheduling;
//
//  3. channel exhaustion (Section 6.3) — blocked by the allocation
//     policy.
//
//     go run ./examples/adversarial
package main

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/neon"
	"repro/internal/workload"
)

func main() {
	infiniteKernel()
	greedyBatcher()
	channelHog()
}

func infiniteKernel() {
	fmt.Println("-- Attack 1: infinite-loop kernel --")
	for _, sched := range []exp.Sched{exp.Direct, exp.DFQ} {
		opts := exp.Quick()
		opts.RunLimit = 50 * time.Millisecond
		dct, _ := workload.ByName("DCT")
		rig := exp.NewRig(sched, opts, dct)
		attacker := workload.LaunchInfiniteKernel(rig.Kernel, 3)
		rig.Engine.RunFor(500 * time.Millisecond)
		victim := rig.Apps[0]
		fmt.Printf("  %-26s attacker alive=%-5v victim rounds=%d\n",
			sched.Label(), attacker.Task.Alive, victim.Rounds)
	}
	fmt.Println("  direct access: the device is gone forever; DFQ kills the task at the run limit.")
	fmt.Println()
}

func greedyBatcher() {
	fmt.Println("-- Attack 2: greedy batching (10ms requests vs 66us requests) --")
	dct, _ := workload.ByName("DCT")
	greedy := workload.GreedyBatcher(10 * time.Millisecond)
	opts := exp.Quick()
	alone := exp.MeasureAlone(opts, dct, greedy)
	for _, sched := range []exp.Sched{exp.Direct, exp.DFQ} {
		res := exp.RunMix(sched, opts, alone, dct, greedy)
		victim, batcher := res.Rig.Apps[0].Task.BusyTime(), res.Rig.Apps[1].Task.BusyTime()
		total := float64(victim + batcher)
		fmt.Printf("  %-26s device share: victim=%2.0f%% batcher=%2.0f%%  (victim slowdown %.1fx)\n",
			sched.Label(), 100*float64(victim)/total, 100*float64(batcher)/total, res.Slowdowns[0])
	}
	fmt.Println("  fair queueing restores the victim's *share*; bounding its latency under")
	fmt.Println("  multi-millisecond requests additionally needs hardware preemption (Section 6.2).")
	fmt.Println()
}

func channelHog() {
	fmt.Println("-- Attack 3: channel exhaustion (Section 6.3) --")
	for _, withPolicy := range []bool{false, true} {
		rig := exp.NewRig(exp.Direct, exp.Quick())
		if withPolicy {
			rig.Kernel.Policy = &neon.ChannelPolicy{MaxChannelsPerTask: 4, MaxTasks: 24}
		}
		_, res, _ := workload.LaunchChannelHog(rig.Kernel, 100)
		rig.Engine.RunFor(50 * time.Millisecond)
		dct, _ := workload.ByName("DCT")
		victim := workload.Launch(rig.Kernel, dct)
		rig.Engine.RunFor(50 * time.Millisecond)
		policy := "no policy"
		if withPolicy {
			policy = "C=4 channels/task"
		}
		fmt.Printf("  %-18s hog grabbed %2d contexts; victim can open GPU: %v\n",
			policy, res.ContextsCreated, victim.SetupError() == nil)
	}
}
