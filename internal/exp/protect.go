package exp

import (
	"fmt"
	"time"

	"repro/internal/neon"
	"repro/internal/report"
	"repro/internal/workload"
)

// Protection runs the Section 3.1 denial-of-service scenario: a task that
// submits an infinite-loop kernel alongside an innocent DCT. Under direct
// access the device hangs; under the protected schedulers the kernel
// identifies the over-long request during a drain and kills the task.
// Each scheduler's scenario is one cell.
func Protection(opts Options) *report.Table {
	rows := grid(opts, "protect", append(AllScheds(), Oracle), func(o Options, s Sched) []string {
		o.RunLimit = 50 * time.Millisecond
		dct, _ := workload.ByName("DCT")
		rig := NewRig(s, o, dct)
		inf := workload.LaunchInfiniteKernel(rig.Kernel, 3)
		round := rig.Measure()[0]
		return []string{
			s.Label(),
			fmt.Sprintf("%v", !inf.Task.Alive),
			inf.Task.ExitReason,
			fmt.Sprintf("%d", rig.Apps[0].Rounds),
			report.US(round),
		}
	})
	t := report.New("Section 3.1/6.2: protection against over-long (infinite) requests",
		"Scheduler", "attacker killed", "exit reason", "victim rounds", "victim round time")
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("direct access has no recourse: the device is occupied forever and the victim starves")
	t.AddNote("Oracle FQ relies on the same run-limit kill, applied via its periodic accounting")
	return t
}

// Sec63DoS runs the Section 6.3 channel-exhaustion attack, with and
// without the OS channel-allocation policy, one cell per variant.
func Sec63DoS(opts Options) *report.Table {
	rows := grid(opts, "sec63", []bool{false, true}, func(o Options, withPolicy bool) []string {
		rig := NewRig(Direct, o)
		if withPolicy {
			rig.Kernel.Policy = &neon.ChannelPolicy{MaxChannelsPerTask: 4, MaxTasks: 24}
		}
		_, res, _ := workload.LaunchChannelHog(rig.Kernel, 100)
		rig.Engine.RunFor(50 * time.Millisecond)

		// A well-behaved victim arrives after the hog.
		dct, _ := workload.ByName("DCT")
		victim := workload.Launch(rig.Kernel, dct)
		rig.Engine.RunFor(50 * time.Millisecond)

		label := "none (vendor default)"
		if withPolicy {
			label = "C=4 channels/task, D/C tasks"
		}
		errText := "-"
		if res.DeniedAt != nil {
			errText = res.DeniedAt.Error()
		}
		return []string{
			label,
			fmt.Sprintf("%d", res.ContextsCreated),
			errText,
			fmt.Sprintf("%v", victim.SetupError() == nil),
		}
	})
	t := report.New("Section 6.3: channel allocation protection",
		"Policy", "hog contexts", "hog stopped by", "victim can open?")
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("the paper observed the device wedged after 48 contexts; the OS policy leaves room for later arrivals")
	return t
}
