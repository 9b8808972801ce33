package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// launchThrottles starts n closed-loop Throttle(200µs) tenants, t0..t(n-1),
// with 20 % think jitter.
func launchThrottles(f *Fleet, n int) []*Tenant {
	var ts []*Tenant
	for i := 0; i < n; i++ {
		s := workload.Throttle(200*time.Microsecond, 0)
		s.Name = fmt.Sprintf("t%d", i)
		ts = append(ts, f.Launch(workload.TenantSpec{Spec: s, Jitter: 0.2}))
	}
	return ts
}

// TestTenantLaneOversubscribed drives the tenant's lane on a device whose
// hardware contexts closed-loop tenants oversubscribe under DFQ: eight
// tenants share three contexts, so rounds keep finding their virtual
// context detached (the uncommitted lane: an attach, often through the
// FIFO, then SubmitSyncOn's store order) or their channel engaged (the
// committed fault). The exact counts pin the lane's event timeline: a
// lane that held the pin through the DirectWrite, or dropped a hop,
// moves them.
func TestTenantLaneOversubscribed(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 1, GPU: gpu.Config{MaxContexts: 3}, Policy: NewLocalitySticky(DefaultStickyDepth), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := launchThrottles(f, 8)
	eng.RunFor(500 * time.Millisecond)

	want := []int64{274, 343, 296, 272, 274, 273, 294, 318}
	for i, tn := range ts {
		if err := tn.SetupError(); err != nil {
			t.Fatalf("%s: %v", tn.Spec.Name, err)
		}
		if tn.Rounds != want[i] {
			t.Errorf("%s ran %d rounds, want %d", tn.Spec.Name, tn.Rounds, want[i])
		}
	}
	k := f.Nodes()[0].Kernel
	mux := k.MuxStatus()
	if mux.Reattaches != 2009 || mux.AttachWaits != 2021 || mux.Evictions != 2014 {
		t.Errorf("reattaches/attach waits/evictions = %d/%d/%d, want 2009/2021/2014",
			mux.Reattaches, mux.AttachWaits, mux.Evictions)
	}
	if k.TotalFaults != 363 {
		t.Errorf("TotalFaults = %d, want 363", k.TotalFaults)
	}
}

// TestKillTenantMidLane kills a closed-loop tenant's node task while its
// lane is (a) in a committed fault, waiting on the task gate for
// admission, (b) queued in the attach FIFO behind a context another
// tenant keeps pinned, and (c) sleeping through the first-touch setup
// syscalls. In every case the lane runs on to the dead handle and
// retires the tenant: the setup error is gpu.ErrContextDead, its round
// leaves the fleet's queue depth, nothing waits on the dead task's gate
// or in the attach queue, and the other tenants keep running rounds on
// a stack that owns no proc.
func TestKillTenantMidLane(t *testing.T) {
	for _, tc := range []struct {
		name     string
		contexts int
		hog      bool // another tenant pins one hardware context for good
		tenants  int
		at       func(v *Tenant, n *Node) bool
	}{
		{"a-committed-fault", 0, false, 3, func(v *Tenant, n *Node) bool {
			task := v.Task(n)
			return task != nil && task.Gate().Waiters() == 1 && v.clients[n.Index].VC.Attached()
		}},
		{"b-attach-fifo", 2, true, 2, func(v *Tenant, n *Node) bool {
			task := v.Task(n)
			return task != nil && task.Gate().Waiters() == 1 && !v.clients[n.Index].VC.Attached()
		}},
		{"c-setup-syscalls", 0, false, 3, func(v *Tenant, n *Node) bool {
			return v.Task(n) == nil && nodeTask(n, "t0") != nil && v.fleet.QueueDepth() == 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f, err := New(eng, Config{Devices: 1, GPU: gpu.Config{MaxContexts: tc.contexts}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := f.Nodes()[0]
			if tc.hog {
				hog := f.NewTenant(workload.OpenLoopTenant("hog", 100*time.Microsecond, 0))
				lane := eng.NewCont()
				hog.ClientOn(lane, n, func(c *userlib.Client, err error) {
					if err != nil {
						t.Errorf("hog client: %v", err)
						return
					}
					c.VC.AcquireOn(lane, gpu.Compute, func(*gpu.Channel, error) {})
				})
				eng.RunFor(time.Millisecond)
			}
			ts := launchThrottles(f, tc.tenants)
			v := ts[0]
			limit := eng.Now().Add(time.Second)
			for !tc.at(v, n) {
				if eng.Now() > limit || !eng.Step() {
					t.Fatal("the lane never reached the kill point")
				}
			}
			task := nodeTask(n, "t0")
			depth := f.QueueDepth()
			n.Kernel.KillTask(task, "test: die mid-lane")
			eng.RunFor(time.Millisecond)
			rounds := v.Rounds
			var others []int64
			for _, o := range ts[1:] {
				others = append(others, o.Rounds)
			}
			eng.RunFor(20 * time.Millisecond)

			if err := v.SetupError(); !errors.Is(err, gpu.ErrContextDead) {
				t.Errorf("setup error %v, want %v", err, gpu.ErrContextDead)
			}
			if v.Rounds != rounds {
				t.Errorf("the dead tenant ran %d more rounds", v.Rounds-rounds)
			}
			if got := f.QueueDepth(); got != depth-1 {
				t.Errorf("queue depth %d after the kill, want %d", got, depth-1)
			}
			if w := task.Gate().Waiters(); w != 0 {
				t.Errorf("%d waiters left on the dead task's gate", w)
			}
			if mux := n.Kernel.MuxStatus(); mux.Waiting != 0 || mux.Reserved != 0 {
				t.Errorf("%d attaches queued and %d slots reserved, want none", mux.Waiting, mux.Reserved)
			}
			for i, o := range ts[1:] {
				if o.Rounds == others[i] {
					t.Errorf("%s ran no rounds after the kill", o.Spec.Name)
				}
			}
			if p := eng.LiveProcs(); p != 0 {
				t.Errorf("%d live procs, want 0", p)
			}
		})
	}
}

// nodeTask returns the live kernel task with the given name on the node.
func nodeTask(n *Node, name string) *neon.Task {
	for _, task := range n.Kernel.Tasks() {
		if task.Name == name {
			return task
		}
	}
	return nil
}

// TestDeadHandleRetiresOnTheLane pins where a tenant retires a round it
// placed on a node whose task died: on its lane, at the back of the
// instant, where the slow-lane process woke. Two lockstep tenants on
// two devices under least-loaded placement end their rounds in the
// same instant; the first one's task is killed in that instant. A
// placement made in the same instant, before the lane runs, still sees
// the doomed round, so the second tenant stays on its device. Retiring
// the round inline would free the first device a step earlier, and the
// tie would move the second tenant onto it.
func TestDeadHandleRetiresOnTheLane(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(eng, Config{Devices: 2, Policy: NewLeastLoaded(), Sched: "direct", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := f.Launch(workload.TenantSpec{Spec: workload.Throttle(200*time.Microsecond, 0)})
	b := f.Launch(workload.TenantSpec{Spec: workload.Throttle(200*time.Microsecond, 0)})
	n0, n1 := f.Nodes()[0], f.Nodes()[1]
	roundEnd := func(rounds int64) sim.Time {
		for a.Rounds < rounds {
			if !eng.Step() {
				t.Fatal("the engine ran dry")
			}
		}
		return eng.Now()
	}
	t20 := roundEnd(20)
	t21 := roundEnd(21)
	eng.RunUntil(t21) // the rest of the instant: the second tenant's round end
	if b.Rounds != a.Rounds || a.Task(n0) == nil || b.Task(n1) == nil {
		t.Fatalf("tenants not in lockstep on their own devices: rounds %d/%d", a.Rounds, b.Rounds)
	}
	// The next round ends one period later, in the same instant on both
	// devices; the kill is queued ahead of that instant's completions.
	kill := t21.Add(t21.Sub(t20))
	eng.Schedule(kill, func() { n0.Kernel.KillTask(a.Task(n0), "test") })
	eng.RunUntil(kill)

	if !errors.Is(a.SetupError(), gpu.ErrContextDead) {
		t.Fatalf("the killed tenant's setup error is %v", a.SetupError())
	}
	if b.node != n1 || f.Migrations != 0 {
		t.Errorf("the surviving tenant's round went to %s (%d migrations), want its own device",
			b.node.Device.Name(), f.Migrations)
	}
	if n0.Load() != 0 || n1.Load() != 1 {
		t.Errorf("queue depths %d/%d, want only the survivor's round", n0.Load(), n1.Load())
	}
}
