package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// sec3Sizes are the equal-sized request sweeps of the Section 3 study.
var sec3Sizes = []float64{10, 20, 40, 60, 100}

// Sec3Throughput reproduces the Section 3 motivation measurement: the
// throughput gain of direct device access over a stack that traps to the
// kernel on every request, for equal-sized requests of 10-100us, both
// with a minimal trap and with nontrivial driver processing per trap.
// Every (size, stack) combination is one cell.
func Sec3Throughput(opts Options) *report.Table {
	type cell struct {
		usz        float64
		trap, work bool
	}
	var cells []cell
	for _, usz := range sec3Sizes {
		// direct, a plain trap, and a trap with driver work
		cells = append(cells, cell{usz, false, false}, cell{usz, true, false}, cell{usz, true, true})
	}
	tput := grid(opts, "sec3", cells, func(o Options, c cell) float64 {
		return throughput(o, time.Duration(c.usz*float64(time.Microsecond)), c.trap, c.work)
	})

	t := report.New("Section 3: direct access vs per-request kernel traps (throughput gain of direct)",
		"Request size", "vs plain trap", "vs trap+driver work")
	for i, usz := range sec3Sizes {
		direct, trap, heavy := tput[3*i], tput[3*i+1], tput[3*i+2]
		t.AddRow(fmt.Sprintf("%.0fus", usz),
			fmt.Sprintf("+%.0f%%", 100*(direct/trap-1)),
			fmt.Sprintf("+%.0f%%", 100*(direct/heavy-1)))
	}
	t.AddNote("paper: 8-35%% gain over plain traps, 48-170%% over traps with driver work, for 10-100us requests")
	return t
}

// throughput measures completed requests/second for back-to-back
// blocking requests of one size under the chosen submission stack.
func throughput(opts Options, size sim.Duration, trap, driverWork bool) float64 {
	eng, done := sec3Stack(size, trap, driverWork)
	eng.RunFor(opts.Measure)
	return float64(*done) / eng.Now().Seconds()
}

// sec3Stack builds the throughput driver: one task submitting
// back-to-back blocking requests of one size, counting completions in
// done. Its thread is a continuation of the task: the first step takes
// the place a spawned process's activation would, and the setup
// syscalls are its sleeps.
func sec3Stack(size sim.Duration, trap, driverWork bool) (eng *sim.Engine, done *int64) {
	eng = sim.NewEngine()
	cfg := gpu.DefaultConfig()
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, core.NewDirectAccess())
	task := k.NewTask("throttle")
	lane := task.NewCont()
	done = new(int64)
	lane.Yield(func() {
		userlib.OpenOn(lane, k, task, "throttle", []gpu.Kind{gpu.Compute}, func(client *userlib.Client, err error) {
			if err != nil {
				return
			}
			client.TrapPerRequest = trap
			client.TrapDriverWork = driverWork
			if trap {
				// Trap-per-request stacks refuse the async fast path on
				// every submission, so the classic blocking loop — trap
				// sleep, store, wait on the done gate — is the honest
				// model. The completed request goes back to the device's
				// pool before the next one is staged.
				var next func(*gpu.Request)
				next = func(r *gpu.Request) {
					r.Release()
					*done++
					if task.Alive {
						client.SubmitSyncOn(lane, gpu.Compute, size, next)
					}
				}
				client.SubmitSyncOn(lane, gpu.Compute, size, next)
				return
			}
			// Direct access runs as a self-resubmitting continuation chain:
			// each completion re-stages the next request from engine context,
			// with zero proc handoffs per request. The hook releases the
			// request, completed or aborted, and the resubmit step is
			// bound once.
			var submit func()
			resubmit := func() {
				*done++
				submit()
			}
			onDone := func(r *gpu.Request) {
				if !r.Aborted {
					eng.After(0, resubmit)
				}
				r.Release()
			}
			submit = func() {
				if !task.Alive {
					return
				}
				if _, ok := client.SubmitAsync(eng, gpu.Compute, size, onDone); !ok {
					panic("exp: sec3 direct submission refused; direct access keeps every channel page present")
				}
			}
			submit()
		})
	})
	return eng, done
}
