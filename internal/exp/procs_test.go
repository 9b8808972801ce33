package exp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestClosedLoopStacksOwnNoProcs: every closed-loop driver — App rounds
// and setup, the fleet tenant's lane, both adversaries and the Section 3
// throughput driver — and every scheduler loop runs as continuations,
// so once setup ends a stack owns no live proc. The engaged App pair
// also pins the App lane's committed fault and the slice loop: under
// engaged Timeslice every submission faults, and a steady-state fault,
// trap to completion, and a slice's end and drain allocate nothing.
func TestClosedLoopStacksOwnNoProcs(t *testing.T) {
	type stack struct {
		eng   *sim.Engine
		check func() string // after setup; a non-empty result fails the row
	}
	type row struct {
		name  string
		setup sim.Duration // simulated time the row runs before its checks
		build func() stack
	}
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(50*time.Microsecond, 0)
	rows := []row{
		{"engaged-app-pair", 5 * time.Millisecond, func() stack {
			eng := sim.NewEngine()
			// 2 ms slices put slice ends and drains in the measured window.
			k := neon.NewKernel(gpu.New(eng, gpu.DefaultConfig()), core.NewTimeslice(2*time.Millisecond))
			a := workload.Launch(k, thr)
			bs := thr
			bs.Name = "Throttle-b"
			b := workload.Launch(k, bs)
			return stack{eng, func() string {
				faults, rounds := k.TotalFaults, a.Rounds+b.Rounds
				if allocs := testing.AllocsPerRun(10, func() { eng.RunFor(time.Millisecond) }); allocs != 0 {
					return fmt.Sprintf("engaged steady state allocated %.1f times per simulated ms, want 0", allocs)
				}
				if k.TotalFaults-faults < 100 || a.Rounds+b.Rounds-rounds < 100 {
					return fmt.Sprintf("measured window saw %d faults and %d rounds; expected a busy engaged holder",
						k.TotalFaults-faults, a.Rounds+b.Rounds-rounds)
				}
				return ""
			}}
		}},
		{"infinite-kernel-warmup", 5 * time.Millisecond, func() stack {
			rig := NewRig(DFQ, Quick(), dct)
			inf := workload.LaunchInfiniteKernel(rig.Kernel, 1000)
			return stack{rig.Engine, func() string {
				if inf.Rounds == 0 || inf.Rounds >= 1000 {
					return fmt.Sprintf("attacker ran %d warmup rounds, want some of 1000", inf.Rounds)
				}
				return ""
			}}
		}},
		{"infinite-kernel-attack", 10 * time.Millisecond, func() stack {
			rig := NewRig(Direct, Quick(), dct)
			inf := workload.LaunchInfiniteKernel(rig.Kernel, 3)
			return stack{rig.Engine, func() string {
				if inf.Rounds != 3 || inf.Task.PendingRequests() != 1 {
					return fmt.Sprintf("attacker ran %d rounds with %d requests on the device, want 3 and the infinite one",
						inf.Rounds, inf.Task.PendingRequests())
				}
				return ""
			}}
		}},
		{"channel-hog", 50 * time.Millisecond, func() stack {
			rig := NewRig(Direct, Quick())
			_, res, done := workload.LaunchChannelHog(rig.Kernel, 100)
			return stack{rig.Engine, func() string {
				if !done.IsOpen() || res.ContextsCreated != 48 {
					return fmt.Sprintf("hog done %v with %d contexts, want done with 48", done.IsOpen(), res.ContextsCreated)
				}
				return ""
			}}
		}},
		{"fleet-tenants", 10 * time.Millisecond, func() stack {
			eng := sim.NewEngine()
			f, err := fleet.New(eng, fleet.Config{Devices: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var ts []*fleet.Tenant
			for _, spec := range workload.FleetPopulation(2, "mixed") {
				ts = append(ts, f.Launch(spec))
			}
			return stack{eng, func() string {
				for _, tn := range ts {
					if tn.Rounds == 0 || tn.SetupError() != nil {
						return fmt.Sprintf("tenant %s: %d rounds, setup error %v", tn.Spec.Name, tn.Rounds, tn.SetupError())
					}
				}
				return ""
			}}
		}},
		{"sec3-direct", time.Millisecond, func() stack {
			eng, done := sec3Stack(20*time.Microsecond, false, false)
			return stack{eng, func() string { return sec3Progress(*done) }}
		}},
		{"sec3-trap", time.Millisecond, func() stack {
			eng, done := sec3Stack(20*time.Microsecond, true, true)
			return stack{eng, func() string { return sec3Progress(*done) }}
		}},
	}
	for _, s := range append(AllScheds(), Oracle) {
		rows = append(rows, row{"rig-" + string(s), 100 * time.Millisecond, func() stack {
			rig := NewRig(s, Quick(), dct, thr)
			return stack{rig.Engine, func() string {
				for _, a := range rig.Apps {
					if a.Rounds == 0 || a.SetupError() != nil {
						return fmt.Sprintf("%s: %d rounds, setup error %v", a.Spec.Name, a.Rounds, a.SetupError())
					}
				}
				return ""
			}}
		}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			st := r.build()
			st.eng.RunFor(r.setup)
			if n := st.eng.LiveProcs(); n != 0 {
				t.Fatalf("%d live procs after setup, want 0", n)
			}
			if msg := st.check(); msg != "" {
				t.Fatal(msg)
			}
			if n := st.eng.LiveProcs(); n != 0 {
				t.Fatalf("%d live procs in steady state, want 0", n)
			}
		})
	}
}

// sec3Progress reports a throughput driver that completed nothing.
func sec3Progress(done int64) string {
	if done == 0 {
		return "the throughput driver completed no request"
	}
	return ""
}

// TestFinishedStacksAreFreed runs a pair of 10^3-tenant storm cells, one
// under DFQ and one under Timeslice, three times in one process. No
// proc and no parked coroutine holds a finished stack, so after a GC
// the live heap and the goroutine count after the third round match the
// first round's.
func TestFinishedStacksAreFreed(t *testing.T) {
	o := Quick()
	round := func() (heap uint64, goroutines int) {
		for _, s := range []Sched{DFQ, TS} {
			if res := RunScaleFullCell(o, 1_000, s); res.Completed == 0 {
				t.Fatalf("%s storm completed nothing", s)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, runtime.NumGoroutine()
	}
	heap1, g1 := round()
	round()
	heap3, g3 := round()
	t.Logf("live heap %.1f MB, %d goroutines after round 1; %.1f MB, %d after round 3",
		float64(heap1)/1e6, g1, float64(heap3)/1e6, g3)
	if heap3 > heap1+1<<20 {
		t.Errorf("live heap grew by %.1f MB over two more rounds; finished stacks stay reachable",
			float64(heap3-heap1)/1e6)
	}
	if g3 != g1 {
		t.Errorf("%d goroutines after round 3, %d after round 1; finished stacks leave goroutines parked", g3, g1)
	}
}
