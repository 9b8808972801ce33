package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// benchOpts shrinks measurement windows so the full bench suite stays
// fast; the shapes reported are the same as `neonsim -exp all`.
func benchOpts() exp.Options {
	o := exp.Quick()
	o.Warmup = 30 * time.Millisecond
	o.Measure = 120 * time.Millisecond
	return o
}

// benchExperiment regenerates one paper artifact per iteration and
// reports simulated-vs-wall time.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(opts)
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// One benchmark per table/figure of the paper (DESIGN.md Section 3).

func BenchmarkTable1(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkSec3Throughput(b *testing.B) { benchExperiment(b, "sec3") }
func BenchmarkFig4(b *testing.B)           { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkProtection(b *testing.B)     { benchExperiment(b, "protect") }
func BenchmarkSec63DoS(b *testing.B)       { benchExperiment(b, "sec63") }
func BenchmarkAblationStats(b *testing.B)  { benchExperiment(b, "ablation-stats") }
func BenchmarkAblationParams(b *testing.B) { benchExperiment(b, "ablation-params") }

// The extension experiments, end to end (measured, not gated).

func BenchmarkFleet(b *testing.B)  { benchExperiment(b, "fleet") }
func BenchmarkTiers(b *testing.B)  { benchExperiment(b, "tiers") }
func BenchmarkScale(b *testing.B)  { benchExperiment(b, "scale") }
func BenchmarkPolicy(b *testing.B) { benchExperiment(b, "policy") }

// benchExperimentAt regenerates one artifact per iteration at a fixed
// scenario-pool width; comparing widths measures the harness speedup
// (the fig6 pair is the acceptance gate for the parallel harness).
func benchExperimentAt(b *testing.B, id string, parallel int) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOpts()
	opts.Parallel = parallel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(opts)
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig6Serial(b *testing.B)    { benchExperimentAt(b, "fig6", 1) }
func BenchmarkFig6Parallel4(b *testing.B) { benchExperimentAt(b, "fig6", 4) }
func BenchmarkFig4Serial(b *testing.B)    { benchExperimentAt(b, "fig4", 1) }
func BenchmarkFig4Parallel4(b *testing.B) { benchExperimentAt(b, "fig4", 4) }
func BenchmarkFig9Serial(b *testing.B)    { benchExperimentAt(b, "fig9", 1) }
func BenchmarkFig9Parallel4(b *testing.B) { benchExperimentAt(b, "fig9", 4) }
func BenchmarkServeSerial(b *testing.B)   { benchExperimentAt(b, "serve", 1) }
func BenchmarkServeParallel4(b *testing.B) {
	benchExperimentAt(b, "serve", 4)
}
func BenchmarkHeteroSerial(b *testing.B)    { benchExperimentAt(b, "hetero", 1) }
func BenchmarkHeteroParallel4(b *testing.B) { benchExperimentAt(b, "hetero", 4) }

// BenchmarkSimEngine measures raw event throughput of the simulation
// substrate: how many scheduled callbacks the engine dispatches per
// second of wall time. The engine is Reset between iterations, so the
// allocation-free reuse path is what is measured.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 100000 {
				eng.After(time.Microsecond, tick)
			}
		}
		eng.After(0, tick)
		eng.Run()
		if n != 100000 {
			b.Fatalf("dispatched %d events", n)
		}
	}
}

// BenchmarkProcHandoff prices one proc handoff: two procs alternate
// through a pair of gates, and each op is one engine step, which
// resumes one parked proc until it signals the other and parks again.
// The steady state must stay at 0 allocs/op.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	ping, pong := eng.NewGate("ping"), eng.NewGate("pong")
	a := eng.Spawn("pong", func(p *sim.Proc) {
		for {
			p.Wait(pong)
			ping.Signal()
		}
	})
	c := eng.Spawn("ping", func(p *sim.Proc) {
		for {
			pong.Signal()
			p.Wait(ping)
		}
	})
	for i := 0; i < 4; i++ { // both procs started and parked once
		eng.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.Fatal("the handoff chain stopped")
		}
	}
	b.StopTimer()
	a.Kill()
	c.Kill()
	eng.Run()
}

// BenchmarkProcSpawn prices a proc's whole life on a warm coroutine
// pool: spawn, park once on a gate, wake, finish. Its allocs/op (the
// Proc; the coroutine and the Cont it parks on are pooled) is the floor
// the pool leaves.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	g := eng.NewGate("g")
	body := func(p *sim.Proc) { p.Wait(g) }
	life := func() {
		eng.Spawn("p", body)
		eng.Run()
		g.Signal()
		eng.Run()
	}
	life() // builds the one coroutine every later life reuses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		life()
	}
}

// BenchmarkRequestPath measures the full submission path: stage, doorbell
// store, device execution, reference-counter completion, user wakeup.
func BenchmarkRequestPath(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, core.NewDirectAccess())
	t := k.NewTask("bench")
	done := 0
	t.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, k, t, "bench", gpu.Compute)
		if err != nil {
			return
		}
		for {
			r := client.SubmitSync(p, gpu.Compute, 10*time.Microsecond)
			done++
			// The request is fully retired (sync submit waits out the
			// completion); recycle it so the steady state does not allocate.
			r.Release()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
	if done == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(done)/float64(b.N), "requests/ms-simulated")
}

// BenchmarkRequestPathAsync is BenchmarkRequestPath driven by the
// continuation API (DESIGN.md §14): the client is a self-rescheduling
// machine — stage, async doorbell, resubmit from the completion hook in
// engine context — so no process parks or unparks per request. The
// sync/async pair prices the per-request proc handoff; the async
// steady state must stay at 0 allocs/op (gated absolutely in CI once
// recorded at zero).
func BenchmarkRequestPathAsync(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, core.NewDirectAccess())
	t := k.NewTask("bench")
	done := 0
	t.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, k, t, "bench", gpu.Compute)
		if err != nil {
			return
		}
		var again func(r *gpu.Request)
		again = func(r *gpu.Request) {
			done++
			r.Release()
			client.SubmitAsync(eng, gpu.Compute, 10*time.Microsecond, again)
		}
		client.SubmitAsync(eng, gpu.Compute, 10*time.Microsecond, again)
	})
	// Settle setup (task, client, first staged request) and fill the
	// request pool so the timed region is the steady state.
	eng.RunFor(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
	if done == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(done)/float64(b.N), "requests/ms-simulated")
}

// benchClosedLoop measures an 8-client closed-loop population on one
// device: sync keeps one parked process per in-flight request, async
// runs the same loops as continuation machines with no process after
// setup. The pair prices the park/unpark at population, where the
// run queue churn is, not just on the single-client hot path.
func benchClosedLoop(b *testing.B, async bool) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, core.NewDirectAccess())
	done := 0
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("cl%d", i)
		t := k.NewTask(name)
		t.Go("main", func(p *sim.Proc) {
			client, err := userlib.Open(p, k, t, name, gpu.Compute)
			if err != nil {
				return
			}
			if !async {
				for {
					r := client.SubmitSync(p, gpu.Compute, 10*time.Microsecond)
					done++
					r.Release()
				}
			}
			var again func(r *gpu.Request)
			again = func(r *gpu.Request) {
				done++
				r.Release()
				client.SubmitAsync(eng, gpu.Compute, 10*time.Microsecond, again)
			}
			client.SubmitAsync(eng, gpu.Compute, 10*time.Microsecond, again)
		})
	}
	eng.RunFor(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
	if done == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(done)/float64(b.N), "requests/ms-simulated")
}

func BenchmarkClosedLoopSync(b *testing.B)  { benchClosedLoop(b, false) }
func BenchmarkClosedLoopAsync(b *testing.B) { benchClosedLoop(b, true) }

// BenchmarkEngagedSubmit prices the engaged submission path end to end:
// a Throttle pair under engaged Timeslice (exp.NewRig), where every
// request faults into the kernel, pays the trap and the handler's scan,
// waits on its task's gate for the token, and is single-stepped to the
// device by the app's slow-lane continuation (DESIGN.md §14). One op is
// one completed simulated request. The steady state, slice ends and
// drains included, allocates nothing (gated in CI).
func BenchmarkEngagedSubmit(b *testing.B) {
	b.ReportAllocs()
	a := workload.Throttle(20*time.Microsecond, 0)
	c := a
	c.Name = "Throttle-b"
	rig := exp.NewRig(exp.TS, benchOpts(), a, c)
	completed := func() int64 {
		var n int64
		for _, app := range rig.Apps {
			n += app.Task.CompletedRequests()
		}
		return n
	}
	// Settle setup and a few slices, so the pools are warm.
	rig.Engine.RunFor(100 * time.Millisecond)
	start, t0 := completed(), rig.Engine.Now()
	b.ResetTimer()
	for completed()-start < int64(b.N) {
		rig.Engine.RunFor(100 * time.Microsecond)
	}
	b.StopTimer()
	simMS := float64(rig.Engine.Now()-t0) / 1e6
	b.ReportMetric(float64(completed()-start)/simMS, "requests/ms-simulated")
}

// BenchmarkServeStorm serves one staggered open-loop storm per op: 10^3
// tenants through traffic.New on one 48-context device under DFQ, each
// arriving every 50 ms over a one-second window. Most arrivals find their
// context evicted, so the op prices the serving dispatchers and the
// mux's attach path, which run as continuations, as does the
// scheduler: the stack owns no proc, and the GC frees it once the op
// ends.
func BenchmarkServeStorm(b *testing.B) {
	const tenants = 1000
	window := time.Second
	gap := window / 20
	b.ReportAllocs()
	var completed int64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		streams := make([]traffic.Stream, tenants)
		for j := range streams {
			streams[j] = traffic.Stream{
				Tenant:  workload.OpenLoopTenant(fmt.Sprintf("t%d", j), 5*time.Microsecond, 0),
				Arrival: &traffic.Staggered{Phase: gap * sim.Duration(j+1) / tenants, Gap: gap},
			}
		}
		srv, err := traffic.New(eng, traffic.Config{
			Fleet: fleet.Config{
				Devices: 1,
				GPU:     gpu.Config{MaxContexts: 48},
				Sched:   "dfq",
				DFQ:     core.DFQConfig{SamplePeriod: 500 * time.Microsecond, SampleRequests: 4},
				Seed:    1,
			},
			Streams: streams,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.RunFor(window)
		if err := srv.SetupError(); err != nil {
			b.Fatal(err)
		}
		for j := range streams {
			completed += srv.Stats(j).Completed
		}
	}
	if completed == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(completed)/float64(b.N)/(float64(window)/1e6), "requests/ms-simulated")
}

// BenchmarkDFQCycle measures the cost of whole engagement/free-run cycles
// with two saturating tasks. The cycle (barrier, drain, sampling runs,
// virtual-time update, free run) allocates nothing (gated in CI).
func BenchmarkDFQCycle(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(64*time.Microsecond, 0)
	rig := exp.NewRig(exp.DFQ, opts, dct, thr)
	rig.Engine.RunFor(100 * time.Millisecond) // setup, and the kernel's watcher pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Engine.RunFor(30 * time.Millisecond)
	}
}

// BenchmarkDFQCycleConsumerClass is BenchmarkDFQCycle on a
// consumer-class device: the same engagement/free-run machinery with
// the class-factor conversion (Work normalization, scaled execution) on
// every hot path. Comparing the pair isolates the cost of
// heterogeneity-normalized accounting.
func BenchmarkDFQCycleConsumerClass(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.Class, _ = cost.ClassByName("consumer")
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, core.NewDisengagedFairQueueing(core.DefaultDFQConfig()))
	k.RequestRunLimit = time.Second
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(64*time.Microsecond, 0)
	workload.Launch(k, dct)
	workload.Launch(k, thr)
	eng.RunFor(100 * time.Millisecond) // setup, and the kernel's watcher pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(30 * time.Millisecond)
	}
}

// benchDFQCycleTenants measures one indexed-ledger engagement cycle at
// a fixed registered population: engage a 256-flow working set, charge
// weighted shares, advance the system virtual time, expire the set.
// Only active flows live in the ledger's heap, so ns/op and allocs/op
// must stay flat while the registered population grows 10^2 -> 10^5 —
// the scale experiment's sub-linearity claim restated as a steady-state
// benchmark (allocs/op settles at 0, which CI gates absolutely).
func benchDFQCycleTenants(b *testing.B, tenants int) {
	b.ReportAllocs()
	led := core.NewFlowIndex()
	led.Grow(tenants)
	ids := make([]core.FlowID, tenants)
	for i := range ids {
		ids[i] = led.Add()
	}
	working := 256
	if working > tenants {
		working = tenants
	}
	rng := sim.NewRNG(1)
	picks := make([]int, working)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range picks {
			picks[k] = rng.Intn(tenants)
			led.SetActive(ids[picks[k]], true)
		}
		for _, t := range picks {
			led.Charge(ids[t], core.PerWeight(core.WorkFor(100*time.Microsecond, 1), float64(1+t%4)))
		}
		led.AdvanceSysVT()
		for _, t := range picks {
			led.SetActive(ids[t], false)
		}
	}
}

func BenchmarkDFQCycleTenants1e2(b *testing.B) { benchDFQCycleTenants(b, 100) }
func BenchmarkDFQCycleTenants1e4(b *testing.B) { benchDFQCycleTenants(b, 10_000) }
func BenchmarkDFQCycleTenants1e5(b *testing.B) { benchDFQCycleTenants(b, 100_000) }

// BenchmarkBoardReconcile measures one fleet reconciliation episode on
// a board already holding 10^4 registered, fleet-active principals: 64
// charges plus activity marks folded into the board's FlowIndex through
// the batch exchange (the surface the per-device schedulers use), leads
// written back in place. The episode's cost tracks its own size (a heap
// fix per charge, the fold a heap-head read), not the registered
// population — and the reusable slice-of-struct batch makes the steady
// state allocation-free where the old map-keyed exchange allocated both
// maps and the lead map every episode. The DFQCycleTenants trio drives
// the same index through the per-device ledger.
func BenchmarkBoardReconcile(b *testing.B) {
	b.ReportAllocs()
	const principals = 10_000
	board := fleet.NewBoard()
	board.Grow(principals)
	pids := make([]core.PrincipalID, principals)
	reg := make([]core.EpisodeEntry, principals)
	for i := range pids {
		pids[i] = board.Principal(fmt.Sprintf("tenant-%06d", i))
		reg[i] = core.EpisodeEntry{Principal: pids[i], Marked: true, Active: true}
	}
	board.ReconcileEpisodeBatch("dev0", reg)
	rng := sim.NewRNG(1)
	batch := make([]core.EpisodeEntry, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = batch[:0]
		for k := 0; k < 64; k++ {
			batch = append(batch, core.EpisodeEntry{
				Principal: pids[rng.Intn(principals)],
				Charge:    core.WorkFor(100*time.Microsecond, 1),
				Marked:    true,
				Active:    true,
			})
		}
		board.ReconcileEpisodeBatch("dev0", batch)
	}
}

// benchPlaceRequest measures the request-level placement hot path on an
// 8-node mixed-class fleet: one policy.Pick plus depth accounting per
// iteration. The fastest-fit/sticky pair shows what the class-factor
// scoring costs over the class-blind policy.
func benchPlaceRequest(b *testing.B, policyName string) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	policy, err := fleet.NewPolicy(policyName)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fleet.New(eng, fleet.Config{
		Devices: 8,
		Classes: []string{"k20", "consumer", "nextgen", "consumer"},
		Policy:  policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	tn := f.NewTenant(workload.OpenLoopTenant("bench", 100*time.Microsecond, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := f.PlaceRequest(tn)
		f.RequestDone(n)
	}
}

func BenchmarkPlaceRequestMixedSticky(b *testing.B)      { benchPlaceRequest(b, "sticky") }
func BenchmarkPlaceRequestMixedFastestFit(b *testing.B)  { benchPlaceRequest(b, "fastest-fit") }
func BenchmarkPlaceRequestMixedClassSticky(b *testing.B) { benchPlaceRequest(b, "class-sticky") }
