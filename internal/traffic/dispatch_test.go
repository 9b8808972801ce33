package traffic

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// regWrites sums the direct (doorbell) writes across every channel
// register on the node's device — one per un-batched submission, one
// per flushed batch.
func regWrites(n *fleet.Node) int64 {
	var writes int64
	for _, ctx := range n.Device.Contexts() {
		for _, ch := range ctx.Channels() {
			writes += ch.Reg.DirectWrites
		}
	}
	return writes
}

// TestBatchDrainOneDoorbellPerBacklog is the batch-staging contract at
// its sharpest: a dispatcher that wakes to a k-item backlog stages all
// k on the channel and rings exactly one doorbell, where the
// per-request drain rings k. The backlog is hand-fed before the drain
// spawns so the doorbell count is exact, not statistical.
func TestBatchDrainOneDoorbellPerBacklog(t *testing.T) {
	const backlog = 8
	run := func(batch bool) (writes, completed int64) {
		eng := sim.NewEngine()
		srv, err := New(eng, Config{
			Fleet:      fleet.Config{Devices: 1, Sched: "direct", Seed: 1},
			BatchDrain: batch,
			Streams: []Stream{
				// Arrival far beyond the horizon: the queue is fed by hand.
				{Tenant: workload.OpenLoopTenant("b", 50*us, 0), Arrival: Deterministic{Rate: 1}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		node := srv.Fleet().Nodes()[0]
		st := srv.streams[0]
		d := srv.newDispatcher(st, node)
		for i := 0; i < backlog; i++ {
			srv.Fleet().PlaceRequest(st.ft)
			d.queue = append(d.queue, item{arrival: eng.Now()})
		}
		d.start()
		eng.RunFor(10 * time.Millisecond)
		if err := srv.SetupError(); err != nil {
			t.Fatal(err)
		}
		return regWrites(node), st.stats.Completed
	}

	plainWrites, plainDone := run(false)
	batchWrites, batchDone := run(true)
	if plainDone != backlog || batchDone != backlog {
		t.Fatalf("completed %d un-batched / %d batched, want %d each", plainDone, batchDone, backlog)
	}
	if plainWrites != backlog {
		t.Errorf("un-batched drain rang %d doorbells for %d requests, want one each", plainWrites, backlog)
	}
	if batchWrites != 1 {
		t.Errorf("batched drain rang %d doorbells for a %d-item backlog, want exactly 1", batchWrites, backlog)
	}
}

// TestBatchDrainUnderDFQEngagement runs batched and per-request drains
// under Disengaged Fair Queueing at overload. While the register is
// engaged the batch path must refuse — each submission still blocks in
// its own fault, which is the interposition the scheduler's sampling
// depends on — and the backlog that piles up behind those faults
// collapses into single doorbells once the free run disengages the
// register. Goodput must not change: batching amortizes submission,
// never capacity.
func TestBatchDrainUnderDFQEngagement(t *testing.T) {
	run := func(batch bool) (completed, arrivals, writes, cycles, flushes, staged int64) {
		eng := sim.NewEngine()
		srv, err := New(eng, Config{
			Fleet: fleet.Config{
				Devices: 1, Sched: "dfq", RunLimit: time.Second, Seed: 1,
				DFQ: core.DFQConfig{SamplePeriod: 2 * time.Millisecond, SampleRequests: 64, FreeRunMultiplier: 1},
			},
			BatchDrain: batch,
			Streams: []Stream{
				{Tenant: workload.OpenLoopTenant("a", 300*us, 0), Arrival: Deterministic{Rate: 3000}},
				{Tenant: workload.OpenLoopTenant("b", 300*us, 0), Arrival: Poisson{Rate: 3000}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(300 * time.Millisecond)
		if err := srv.SetupError(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			completed += srv.Stats(i).Completed
			arrivals += srv.Stats(i).Arrivals
			flushes += srv.Stats(i).Flushes
			staged += srv.Stats(i).Batched
		}
		return completed, arrivals, regWrites(srv.Fleet().Nodes()[0]),
			srv.Fleet().Nodes()[0].DFQ().Cycles, flushes, staged
	}
	plain, plainArrivals, plainWrites, _, _, _ := run(false)
	batched, _, batchWrites, batchCycles, flushes, staged := run(true)
	t.Logf("arrivals %d, doorbells un-batched %d vs batched %d, %d flushes carried %d submissions, %d DFQ cycles",
		plainArrivals, plainWrites, batchWrites, flushes, staged, batchCycles)

	if batched < plain*9/10 {
		t.Errorf("batched goodput %d vs %d un-batched: batching must not cost capacity", batched, plain)
	}
	// Engaged-path submissions ring no doorbell in either mode (the
	// fault carries them); the direct remainder rings one each
	// un-batched, so batching must save exactly what the multi-item
	// flushes collapse.
	if saved := staged - flushes; saved <= 0 {
		t.Errorf("%d flushes carried %d submissions: no backlog ever collapsed", flushes, staged)
	}
	if batchWrites >= plainWrites {
		t.Errorf("batched doorbells %d vs %d un-batched: batching saved nothing", batchWrites, plainWrites)
	}
	// Engagement interposition survives batching: the DFQ cycle
	// machinery (barrier, sampling, free-run) keeps running.
	if batchCycles < 3 {
		t.Errorf("only %d DFQ cycles under batched drain: engagement path not exercised", batchCycles)
	}
}

// TestBatchDrainStampsSojourns: batching must not lose per-request
// arrival stamps — sojourn latencies stay per-request even when the
// whole backlog is delivered in one doorbell event.
func TestBatchDrainStampsSojourns(t *testing.T) {
	eng := sim.NewEngine()
	srv, err := New(eng, Config{
		Fleet:      fleet.Config{Devices: 1, Sched: "direct", RunLimit: time.Second, Seed: 1},
		BatchDrain: true,
		Streams: []Stream{
			{Tenant: workload.OpenLoopTenant("b", 200*us, 0), Arrival: Deterministic{Rate: 1000}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(300 * time.Millisecond)
	st := srv.Stats(0)
	if st.Completed < 250 {
		t.Fatalf("completed %d of ~300 offered", st.Completed)
	}
	p50 := st.Latency.Quantile(0.5)
	if p50 < 200*us || p50 > 260*us {
		t.Fatalf("p50 sojourn %v under batched drain, want ~service time 200µs", p50)
	}
}

// benchDispatcherDrain measures one 32-item backlog drain end to end —
// wake, submission, device execution, completion accounting — with
// per-request doorbells vs one batched flush. The batched drain saves
// two events and a DirectWrite of pacing per request; the delta is the
// dispatcher-side submission cost the batch amortizes.
func benchDispatcherDrain(b *testing.B, batch bool) {
	const backlog = 32
	eng := sim.NewEngine()
	srv, err := New(eng, Config{
		Fleet:      fleet.Config{Devices: 1, Sched: "direct", Seed: 1},
		BatchDrain: batch,
		Streams: []Stream{
			// Rate 0 never fires: every backlog is fed by hand.
			{Tenant: workload.OpenLoopTenant("b", us, 0), Arrival: Deterministic{Rate: 0}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	node := srv.Fleet().Nodes()[0]
	st := srv.streams[0]
	d := srv.newDispatcher(st, node)
	d.start()
	eng.RunFor(time.Millisecond)
	fill := func() {
		for j := 0; j < backlog; j++ {
			srv.Fleet().PlaceRequest(st.ft)
			d.queue = append(d.queue, item{arrival: eng.Now()})
		}
		d.wake()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(0, fill)
		eng.RunFor(200 * time.Microsecond)
	}
	if st.stats.Completed < int64(b.N*backlog) {
		b.Fatalf("completed %d of %d submitted", st.stats.Completed, b.N*backlog)
	}
}

func BenchmarkDispatcherDrain(b *testing.B)        { benchDispatcherDrain(b, false) }
func BenchmarkDispatcherDrainBatched(b *testing.B) { benchDispatcherDrain(b, true) }

// TestColdRebuildNotCountedWhenTaskDies is the regression test for the
// dispatcher's cold-rebuild accounting: when the tenant's task dies
// while its virtual context waits for a hardware slot, the rebuild
// submission lands nil and its working-set time must NOT be charged
// to ColdTime — the rebuild never reached the device.
//
// The death window is built by hand: a hog tenant pins the device's
// only hardware context forever, so the victim dispatcher's cold
// submission waits in the mux attach queue, where the kill lands.
func TestColdRebuildNotCountedWhenTaskDies(t *testing.T) {
	eng := sim.NewEngine()
	srv, err := New(eng, Config{
		Fleet: fleet.Config{Devices: 1, GPU: gpu.Config{MaxContexts: 1}, Sched: "direct", Seed: 1},
		Streams: []Stream{
			// Arrival far beyond the horizon: the queue is fed by hand.
			{Tenant: workload.OpenLoopTenant("victim", 100*us, 400*us), Arrival: Deterministic{Rate: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node := srv.Fleet().Nodes()[0]
	hogHolds(t, srv, node, true)
	eng.RunFor(time.Millisecond)

	// Hand-feed the victim's dispatcher one cold item and start its
	// drain; the client opens detached (pool exhausted) and the cold
	// rebuild waits for a slot.
	st := srv.streams[0]
	d := srv.newDispatcher(st, node)
	srv.Fleet().PlaceRequest(st.ft)
	d.queue = append(d.queue, item{arrival: eng.Now(), cold: true})
	d.start()
	eng.RunFor(time.Millisecond)

	task := st.ft.Task(node)
	if task == nil || !task.Alive {
		t.Fatal("victim task not set up, or died early")
	}
	node.Kernel.KillTask(task, "test: die while waiting for a slot")
	eng.RunFor(time.Millisecond)

	if st.stats.ColdTime != 0 {
		t.Errorf("ColdTime = %v for a rebuild that was never submitted, want 0", st.stats.ColdTime)
	}
	if st.stats.Aborted != 1 {
		t.Errorf("Aborted = %d, want 1: the queued request can never be served", st.stats.Aborted)
	}
	if depth := srv.Fleet().QueueDepth(); depth != 0 {
		t.Errorf("fleet queue depth %d after abort, want 0", depth)
	}
}

// hogHolds opens a hog tenant's client on the node and acquires its
// context from a process: pinned forever, or released at once so the
// idle context is the LRU victim of the next attach.
func hogHolds(t *testing.T, srv *Server, node *fleet.Node, pinned bool) {
	t.Helper()
	eng := srv.eng
	hog := srv.Fleet().NewTenant(workload.OpenLoopTenant("hog", 100*us, 0))
	hold := eng.NewGate("hold")
	eng.Spawn("hog", func(p *sim.Proc) {
		var c *userlib.Client
		var err error
		p.Await(func(lane *sim.Cont, resume func()) {
			hog.ClientOn(lane, node, func(x *userlib.Client, e error) {
				c, err = x, e
				resume()
			})
		})
		if err != nil {
			t.Errorf("hog client: %v", err)
			return
		}
		p.Await(func(lane *sim.Cont, resume func()) {
			c.VC.AcquireOn(lane, gpu.Compute, func(_ *gpu.Channel, e error) {
				err = e
				resume()
			})
		})
		if err != nil {
			t.Errorf("hog acquire: %v", err)
			return
		}
		if pinned {
			p.Wait(hold)
		}
		c.VC.Release()
	})
}

// TestDispatcherQueueReusesArray pins the dispatcher queue's storage:
// the drain pops from a head index and rewinds to the start of the
// array once the queue empties, so a warmed arrive-then-drain cycle
// allocates nothing (a re-slicing pop never reuses the array's head,
// and every append past its end reallocates).
func TestDispatcherQueueReusesArray(t *testing.T) {
	eng := sim.NewEngine()
	srv, err := New(eng, Config{
		Fleet: fleet.Config{Devices: 1, Sched: "direct", Seed: 1},
		Streams: []Stream{
			// Arrival far beyond the horizon: arrivals are fed by hand.
			{Tenant: workload.OpenLoopTenant("q", 20*us, 0), Arrival: Deterministic{Rate: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.streams[0]
	burst := func() {
		for i := 0; i < 3; i++ {
			srv.arrive(st)
		}
	}
	cycle := func() {
		eng.After(0, burst)
		eng.RunFor(500 * time.Microsecond)
	}
	for i := 0; i < 8; i++ { // spawn the dispatcher, open its client, warm the pools
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("arrive-drain cycle allocated %.1f times, want 0", allocs)
	}
	if got, want := st.stats.Completed, int64(3*(8+51)); got != want {
		t.Errorf("completed %d requests, want %d", got, want)
	}
}

// TestServingDispatchersOwnNoProcs: a serving stack's dispatchers and
// its scheduler loop are engine continuations, so a storm of tenants
// leaves no proc behind. The storm is staggered and four hardware
// contexts serve a few hundred tenants under DFQ, so dispatchers wait
// in the attach queue and reattach evicted contexts — the attach path
// runs as continuation steps, not as parked procs.
func TestServingDispatchersOwnNoProcs(t *testing.T) {
	const tenants = 300
	eng := sim.NewEngine()
	gap := 10 * time.Millisecond
	streams := make([]Stream, tenants)
	for i := range streams {
		streams[i] = Stream{
			Tenant:  workload.OpenLoopTenant(fmt.Sprintf("t%d", i), 5*us, 0),
			Arrival: &Staggered{Phase: gap * sim.Duration(i+1) / tenants, Gap: gap},
		}
	}
	srv, err := New(eng, Config{
		Fleet: fleet.Config{
			Devices: 1,
			GPU:     gpu.Config{MaxContexts: 4},
			Sched:   "dfq",
			DFQ:     core.DFQConfig{SamplePeriod: 500 * us, SampleRequests: 4},
			Seed:    1,
		},
		Streams: streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * gap)
	if err := srv.SetupError(); err != nil {
		t.Fatal(err)
	}

	var completed int64
	for i := range streams {
		completed += srv.Stats(i).Completed
		if n := dispatchers(srv.streams[i]); n != 1 {
			t.Fatalf("stream %d has %d dispatchers, want 1", i, n)
		}
	}
	mux := srv.Fleet().Nodes()[0].Kernel.MuxStatus()
	t.Logf("%d completed, %d attach waits, %d reattaches, %d live procs", completed, mux.AttachWaits, mux.Reattaches, eng.LiveProcs())
	if completed < 2*tenants {
		t.Errorf("completed %d requests, want at least %d", completed, 2*tenants)
	}
	if mux.AttachWaits == 0 || mux.Reattaches == 0 {
		t.Errorf("attach waits %d, reattaches %d: the storm never exercised the attach path", mux.AttachWaits, mux.Reattaches)
	}
	if n := eng.LiveProcs(); n != 0 {
		t.Errorf("LiveProcs = %d after serving %d tenants, want 0", n, tenants)
	}
}

// TestKillMidAttachRetiresItem kills a tenant's task while its
// dispatcher's continuation is inside an attach: (a) waiting in the
// attach FIFO, (b) sleeping the context or channel setup syscall of a
// reattach, (c) sleeping the reattach's ContextSwitch. In every case the
// death wakes the dispatcher, which retires the cold item as aborted
// without charging the rebuild, and the attach leaves nothing behind:
// no queue depth, no gate waiter, no queued attach or reserved slot,
// and no later step or event.
func TestKillMidAttachRetiresItem(t *testing.T) {
	for _, tc := range []struct {
		name string
		hog  bool // the hog keeps the only slot pinned
		at   func(task *neon.Task, mux neon.MuxStats) bool
	}{
		{"a-attach-fifo", true, func(_ *neon.Task, mux neon.MuxStats) bool {
			return mux.Waiting == 1
		}},
		{"b-context-syscall", false, func(_ *neon.Task, mux neon.MuxStats) bool {
			return mux.Evictions == 2
		}},
		{"b-channel-syscall", false, func(task *neon.Task, _ neon.MuxStats) bool {
			return len(task.Contexts()) == 1
		}},
		{"c-context-switch", false, func(_ *neon.Task, mux neon.MuxStats) bool {
			// The hog's attach was its first; the victim's is the
			// device's first reattach.
			return mux.Reattaches == 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			srv, err := New(eng, Config{
				Fleet: fleet.Config{Devices: 1, GPU: gpu.Config{MaxContexts: 1}, Sched: "direct", Seed: 1},
				Streams: []Stream{
					// Arrival far beyond the horizon: the queue is fed by hand.
					{Tenant: workload.OpenLoopTenant("victim", 100*us, 400*us), Arrival: Deterministic{Rate: 1}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			node := srv.Fleet().Nodes()[0]
			k := node.Kernel
			st := srv.streams[0]
			feed := func(cold bool) {
				srv.Fleet().PlaceRequest(st.ft)
				st.disp[node.Index].queue = append(st.disp[node.Index].queue, item{arrival: eng.Now(), cold: cold})
				st.disp[node.Index].wake()
			}

			// The victim attaches eagerly and serves one request; then the
			// hog evicts its idle context, keeping the slot pinned (a) or
			// leaving it idle for the victim to evict back (b, c).
			d := srv.newDispatcher(st, node)
			srv.Fleet().PlaceRequest(st.ft)
			d.queue = append(d.queue, item{arrival: eng.Now()})
			d.start()
			eng.RunFor(time.Millisecond)
			hogHolds(t, srv, node, tc.hog)
			eng.RunFor(time.Millisecond)
			task := st.ft.Task(node)
			vc := d.client.VC
			if st.stats.Completed != 1 || vc.Attached() || k.MuxStatus().Evictions != 1 {
				t.Fatalf("setup: completed %d, victim attached %v, %d evictions", st.stats.Completed, vc.Attached(), k.MuxStatus().Evictions)
			}

			// A cold item sends the dispatcher into the attach; step to
			// the kill point and kill the task there.
			eng.After(0, func() { feed(true) })
			for !tc.at(task, k.MuxStatus()) {
				if !eng.Step() {
					t.Fatal("the attach never reached the kill point")
				}
			}
			attaches := k.MuxStatus().Attaches
			k.KillTask(task, "test: die mid-attach")
			eng.RunFor(time.Millisecond)

			if st.stats.Aborted != 1 || st.stats.ColdTime != 0 {
				t.Errorf("aborted %d, cold time %v; want the item aborted and no rebuild charged", st.stats.Aborted, st.stats.ColdTime)
			}
			if depth := srv.Fleet().QueueDepth(); depth != 0 {
				t.Errorf("fleet queue depth %d, want 0", depth)
			}
			if n := task.Gate().Waiters(); n != 0 {
				t.Errorf("%d waiters left on the dead task's gate", n)
			}
			mux := k.MuxStatus()
			if mux.Waiting != 0 || mux.Reserved != 0 {
				t.Errorf("%d attaches queued and %d slots reserved after the kill, want none", mux.Waiting, mux.Reserved)
			}
			if mux.Attaches != attaches || vc.Attached() {
				t.Errorf("the dead attach went on: %d attaches (was %d), attached %v", mux.Attaches, attaches, vc.Attached())
			}
			if !d.idle || eng.Pending() != 1 {
				t.Errorf("dispatcher idle %v with %d events pending, want idle with only the arrival timer", d.idle, eng.Pending())
			}
		})
	}
}

// dispatchers counts the nodes the stream has a dispatcher on.
func dispatchers(st *stream) int {
	n := 0
	for _, d := range st.disp {
		if d != nil {
			n++
		}
	}
	return n
}
