// Quickstart: build the simulated stack by hand — engine, GPU, NEON
// kernel, a scheduler — run two competing applications, and print what
// each one experienced.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// 1. A deterministic discrete-event engine in virtual time.
	eng := sim.NewEngine()

	// 2. The accelerator: a Kepler-class GPU with 48 contexts, a
	//    round-robin engine, and per-channel reference counters.
	dev := gpu.New(eng, gpu.DefaultConfig())

	// 3. The OS side: the NEON kernel module with the paper's Disengaged
	//    Fair Queueing scheduler attached.
	sched := core.NewDisengagedFairQueueing(core.DefaultDFQConfig())
	kernel := neon.NewKernel(dev, sched)
	kernel.RequestRunLimit = time.Second

	// 4. Two applications: a small-request compute benchmark and a
	//    greedy microbenchmark issuing 850us requests back to back.
	dct, _ := workload.ByName("DCT")
	throttle := workload.Throttle(850*time.Microsecond, 0)
	appA := workload.Launch(kernel, dct)
	appB := workload.Launch(kernel, throttle)

	// 5. Run one simulated second.
	eng.RunFor(time.Second)

	fmt.Println("After 1s of simulated time under Disengaged Fair Queueing:")
	for _, app := range []*workload.App{appA, appB} {
		fmt.Printf("  %-10s rounds=%6d  avg round=%8s  device time=%8s\n",
			app.Spec.Name, app.Rounds, app.AvgRound(), app.Task.BusyTime())
	}
	fmt.Printf("  engagement cycles: %d, denials issued: %d, faults taken: %d\n",
		sched.Cycles, sched.Denials, kernel.TotalFaults)
	fmt.Println()
	fmt.Println("Despite the 13x request-size difference, both tasks receive a")
	fmt.Println("comparable share of device time — and almost every request was")
	fmt.Println("submitted at direct-access speed (compare faults to rounds).")
}
