package exp

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestTornDownStacksHoldNoRequest: killing every task of a closed-loop
// stack sends every request back to its device's pool, so 60 ms after
// the last kill no device has a request out (gpu.Device.RequestsOut).
// The rigs run DCT, Throttle, the pipelined glxgears and an
// InfiniteKernel at a 50 ms run limit under every scheduler, so
// blocking requests on the fast path and on the lane, fire-and-forget
// ones and the attack are in flight when the kills land. The fleets
// run closed-loop tenants on two devices; a tenant's loop outlives its
// tasks and opens one on a device it had not touched, so the kills
// repeat until no task is left alive and every loop has stopped.
func TestTornDownStacksHoldNoRequest(t *testing.T) {
	type stack struct {
		eng     *sim.Engine
		kernels []*neon.Kernel
	}
	dct, _ := workload.ByName("DCT")
	gears, _ := workload.ByName("glxgears")
	thr := workload.Throttle(425*time.Microsecond, 0)
	builds := map[string]func() stack{}
	var names []string
	for _, s := range append(AllScheds(), Oracle) {
		names = append(names, "rig-"+string(s))
		builds["rig-"+string(s)] = func() stack {
			o := Quick()
			o.RunLimit = 50 * time.Millisecond
			rig := NewRig(s, o, dct, thr, gears)
			workload.LaunchInfiniteKernel(rig.Kernel, 3)
			return stack{rig.Engine, []*neon.Kernel{rig.Kernel}}
		}
	}
	for _, sched := range []string{"ts", "dfq"} {
		names = append(names, "fleet-"+sched)
		builds["fleet-"+sched] = func() stack {
			f, err := fleet.New(sim.NewEngine(), fleet.Config{Devices: 2, Sched: sched, RunLimit: 50 * time.Millisecond, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range workload.FleetPopulation(6, "mixed") {
				f.Launch(spec)
			}
			st := stack{eng: f.Engine()}
			for _, n := range f.Nodes() {
				st.kernels = append(st.kernels, n.Kernel)
			}
			return st
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			st := builds[name]()
			st.eng.RunFor(150 * time.Millisecond)
			for round, killed := 0, 1; killed > 0; round++ {
				if round > len(st.kernels) {
					t.Fatalf("tasks still open after %d rounds of kills", round)
				}
				killed = 0
				for _, k := range st.kernels {
					for _, task := range k.Tasks() {
						k.KillTask(task, "test: teardown")
						killed++
					}
				}
				st.eng.RunFor(60 * time.Millisecond)
			}
			for i, k := range st.kernels {
				if n := k.Device().RequestsOut(); n != 0 {
					t.Errorf("device %d: %d requests out of the pool after every task was killed", i, n)
				}
			}
		})
	}
}
