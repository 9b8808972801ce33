package exp

import (
	"fmt"
	"time"

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
// Every (size, stack) combination is an independent job.
func Sec3Throughput(opts Options) *report.Table {
	stacks := []struct {
		name       string
		trap, work bool
	}{
		{"direct", false, false},
		{"trap", true, false},
		{"trap+driver", true, true},
	}
	var jobs []Job
	for i, usz := range sec3Sizes {
		size := time.Duration(usz * float64(time.Microsecond))
		for j, st := range stacks {
			jobs = append(jobs, NewJob("sec3", i*len(stacks)+j,
				fmt.Sprintf("%.0fus via %s", usz, st.name),
				func(o Options) any { return throughput(o, size, st.trap, st.work) }))
		}
	}
	res := RunJobs(opts, jobs)

	t := report.New("Section 3: direct access vs per-request kernel traps (throughput gain of direct)",
		"Request size", "vs plain trap", "vs trap+driver work")
	for i, usz := range sec3Sizes {
		direct := res[i*len(stacks)].Value.(float64)
		trap := res[i*len(stacks)+1].Value.(float64)
		heavy := res[i*len(stacks)+2].Value.(float64)
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
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, noScheduler{})
	task := k.NewTask("throttle")
	var done int64
	task.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, k, task, "throttle", gpu.Compute)
		if err != nil {
			return
		}
		client.TrapPerRequest = trap
		client.TrapDriverWork = driverWork
		if trap {
			// Trap-per-request stacks refuse the async fast path on
			// every submission, so the classic blocking loop — trap
			// sleep, store, park on the done gate — is the honest model.
			for task.Alive {
				client.SubmitSync(p, gpu.Compute, size)
				done++
			}
			return
		}
		// Direct access runs as a self-resubmitting continuation chain:
		// each completion re-stages the next request from engine context,
		// with zero proc handoffs per request.
		eng := p.Engine()
		slow := eng.NewGate("sec3-slow")
		var submit func()
		onDone := func(r *gpu.Request) {
			if r.Aborted {
				return
			}
			eng.After(0, func() {
				r.Release()
				done++
				submit()
			})
		}
		submit = func() {
			if !task.Alive {
				return
			}
			if _, ok := client.SubmitAsync(eng, gpu.Compute, size, onDone); !ok {
				// Unreachable under noScheduler (pages stay present);
				// hand to the blocking lane rather than stall silently.
				slow.Signal()
			}
		}
		submit()
		for task.Alive {
			p.Wait(slow)
			client.SubmitSync(p, gpu.Compute, size)
			done++
			submit()
		}
	})
	eng.RunFor(opts.Measure)
	return float64(done) / eng.Now().Seconds()
}

// noScheduler is a direct-access policy without the core package import
// (avoids an import cycle in tests that reuse this file's helper).
type noScheduler struct{}

func (noScheduler) Name() string                                          { return "none" }
func (noScheduler) Start(*neon.Kernel)                                    {}
func (noScheduler) TaskAdmitted(*neon.Task)                               {}
func (noScheduler) TaskExited(*neon.Task)                                 {}
func (noScheduler) ChannelActivated(cs *neon.ChannelState)                { cs.Ch.Reg.SetPresent(true) }
func (noScheduler) HandleFault(*sim.Proc, *neon.Task, *neon.ChannelState) {}
