package neon_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExampleNewKernel is the kernel-attach flow: build the simulation
// engine and the device, pick a scheduling policy by name, attach the
// NEON kernel, and run a workload under it. This is the stack every
// experiment assembles (see exp.NewRig) and the starting point for
// driving the simulation by hand.
func ExampleNewKernel() {
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())

	sched, err := core.New("dfq")
	if err != nil {
		fmt.Println(err)
		return
	}
	kernel := neon.NewKernel(dev, sched)
	kernel.RequestRunLimit = time.Second

	app := workload.Launch(kernel, workload.Throttle(100*time.Microsecond, 0))
	eng.RunFor(50 * time.Millisecond)

	fmt.Println("scheduler:", kernel.Scheduler().Name())
	fmt.Println("task alive:", app.Task.Alive)
	fmt.Println("made progress:", app.Rounds > 0)
	// Output:
	// scheduler: disengaged-fair-queueing
	// task alive: true
	// made progress: true
}
