package main

// The per-layer ladder. Each rung drives one layer through its public
// API for a fixed count of simulated units and reports host time (and
// allocations) per unit. The request rungs share one shape — two
// saturating clients issuing rungSize compute requests — so a rung
// minus the rung beneath it (the attr.* metrics) is one layer's cost
// per simulated request.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// rungSize is the request size every request-path rung issues.
const rungSize = 64 * time.Microsecond

// rungReps is how many times each rung repeats; it reports the median.
const rungReps = 3

// ladder is the state one ladder unit shares across its rungs.
type ladder struct {
	seed  int64
	quick bool
	out   map[string]float64
}

// scale returns n, or a tenth of it for the package tests.
func (l *ladder) scale(n int) int {
	if l.quick {
		return n / 10
	}
	return n
}

// window is the simulated time one request-path rung repetition runs:
// about 30k requests at rungSize.
func (l *ladder) window() sim.Duration {
	return sim.Duration(l.scale(2000)) * time.Millisecond
}

type rung struct {
	name string
	run  func(l *ladder) error
}

// ladders are the rungs of each traced workload's layers, keyed by the
// workload whose layers they price.
var ladders = map[string][]rung{
	"pairs": {
		{"sim.event", rungSimEvent},
		{"sim.handoff", rungSimHandoff},
		{"gpu.request", rungGPURequest},
		{"userlib.async", func(l *ladder) error { return rungUserlib(l, true) }},
		{"userlib.sync", func(l *ladder) error { return rungUserlib(l, false) }},
		{"core.ts", func(l *ladder) error { return rungCore(l, exp.TS, "core.ts") }},
		{"core.dts", func(l *ladder) error { return rungCore(l, exp.DTS, "core.dts") }},
		{"core.dfq", func(l *ladder) error { return rungCore(l, exp.DFQ, "core.dfq") }},
	},
	"openloop": {
		{"traffic.dispatch", func(l *ladder) error { return rungTraffic(l, false, "traffic.dispatch") }},
		{"traffic.batch", func(l *ladder) error { return rungTraffic(l, true, "traffic.batch") }},
		{"traffic.admit", rungAdmit},
		{"fleet.place.sticky2", func(l *ladder) error {
			return rungPlace(l, "fleet.place_ns.sticky2", 2, nil, fleet.NewLocalitySticky(exp.ServeAdmitDepth))
		}},
		{"fleet.place.fastestfit8", func(l *ladder) error {
			return rungPlace(l, "fleet.place_ns.fastestfit8", 8,
				[]string{"k20", "consumer", "nextgen", "consumer"}, fleet.NewFastestFit())
		}},
		{"fleet.board", rungBoard},
		{"metrics.digest", rungDigest},
	},
	"storm": {
		{"traffic.new", rungStormBuild},
		{"neon.open_virtual", rungOpenVirtual},
		{"neon.reattach", rungReattach},
	},
	"suite": {
		{"core.ledger", rungLedger},
		{"policy.solve", rungPolicy},
		{"fleet.alloc_round", rungAllocRound},
	},
}

// perUnit runs rep rungReps times and returns the median host
// nanoseconds and heap allocations per unit; rep returns the units it
// ran.
func perUnit(rep func() int64) (ns, allocs float64, err error) {
	var nsv, av []float64
	var ms runtime.MemStats
	for i := 0; i < rungReps; i++ {
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		start := time.Now()
		units := rep()
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		if units <= 0 {
			return 0, 0, fmt.Errorf("repetition ran no units")
		}
		nsv = append(nsv, float64(d)/float64(units))
		av = append(av, float64(ms.Mallocs-a0)/float64(units))
	}
	return summarize(nsv).Median, summarize(av).Median, nil
}

// setRung records a rung's per-unit time and, when allocsKey is set,
// its allocations.
func (l *ladder) setRung(nsKey, allocsKey string, rep func() int64) error {
	ns, allocs, err := perUnit(rep)
	if err != nil {
		return err
	}
	l.out[nsKey] = ns
	if allocsKey != "" {
		l.out[allocsKey] = allocs
	}
	return nil
}

// passThrough is a scheduler that never engages: every channel stays
// direct-mapped, so the kernel adds only its bookkeeping.
type passThrough struct{}

func (passThrough) Name() string                                          { return "pass" }
func (passThrough) Start(*neon.Kernel)                                    {}
func (passThrough) TaskAdmitted(*neon.Task)                               {}
func (passThrough) TaskExited(*neon.Task)                                 {}
func (passThrough) ChannelActivated(cs *neon.ChannelState)                { cs.Ch.Reg.SetPresent(true) }
func (passThrough) HandleFault(*sim.Proc, *neon.Task, *neon.ChannelState) {}

// rungSimEvent chains Engine.After callbacks on a reset engine.
func rungSimEvent(l *ladder) error {
	n := l.scale(200_000)
	eng := sim.NewEngine()
	ns, allocs, err := perUnit(func() int64 {
		eng.Reset()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < n {
				eng.After(time.Microsecond, tick)
			}
		}
		eng.After(0, tick)
		eng.Run()
		return int64(count)
	})
	l.out["sim.event_ns"], l.out["sim.event_allocs"] = ns, allocs
	return err
}

// rungSimHandoff ping-pongs two procs through Gate.Signal and
// Proc.Wait; a unit is one handoff.
func rungSimHandoff(l *ladder) error {
	n := l.scale(50_000)
	return l.setRung("sim.handoff_ns", "", func() int64 {
		eng := sim.NewEngine()
		ping, pong := eng.NewGate("ping"), eng.NewGate("pong")
		stop := false
		hops := int64(0)
		eng.Spawn("pong", func(p *sim.Proc) {
			for {
				p.Wait(pong)
				if stop {
					return
				}
				hops++
				ping.Signal()
			}
		})
		eng.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				hops++
				pong.Signal()
				p.Wait(ping)
			}
			stop = true
			pong.Signal()
		})
		eng.Run()
		return hops
	})
}

// rungGPURequest drives a raw gpu.Device: Stage plus an asynchronous
// doorbell store, resubmitted from the completion hook.
func rungGPURequest(l *ladder) error {
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	var chans []*gpu.Channel
	for i := 0; i < 2; i++ {
		ctx, err := dev.CreateContext(gpu.TaskID(i+1), "rung")
		if err != nil {
			return err
		}
		ch, err := dev.CreateChannel(ctx, gpu.Compute)
		if err != nil {
			return err
		}
		chans = append(chans, ch)
		var again func(*gpu.Request)
		submit := func() {
			r := ch.Stage(rungSize, gpu.Compute)
			r.OnDone = again
			ch.Reg.StoreAsync(eng, r.Ref)
		}
		again = func(r *gpu.Request) {
			r.Release()
			submit()
		}
		submit()
	}
	completed := func() int64 {
		var n int64
		for _, ch := range chans {
			n += ch.Completions
		}
		return n
	}
	return l.runWindow(eng, completed, "gpu.request_ns", "gpu.request_allocs")
}

// runWindow settles the engine, then reports each repetition's window
// per completed request.
func (l *ladder) runWindow(eng *sim.Engine, completed func() int64, nsKey, allocsKey string) error {
	eng.RunFor(l.window() / 10)
	return l.setRung(nsKey, allocsKey, func() int64 {
		before := completed()
		eng.RunFor(l.window())
		return completed() - before
	})
}

// rungUserlib runs two userlib clients on a kernel whose scheduler never
// engages: continuations (SubmitAsync) or one parked process per
// request (SubmitSync).
func rungUserlib(l *ladder, async bool) error {
	eng := sim.NewEngine()
	k := neon.NewKernel(gpu.New(eng, gpu.DefaultConfig()), passThrough{})
	var tasks []*neon.Task
	for i := 0; i < 2; i++ {
		t := k.NewTask(fmt.Sprintf("rung%d", i))
		tasks = append(tasks, t)
		t.Go("main", func(p *sim.Proc) {
			c, err := userlib.Open(p, k, t, t.Name, gpu.Compute)
			if err != nil {
				return
			}
			if !async {
				for {
					c.SubmitSync(p, gpu.Compute, rungSize).Release()
				}
			}
			var again func(*gpu.Request)
			again = func(r *gpu.Request) {
				r.Release()
				c.SubmitAsync(eng, gpu.Compute, rungSize, again)
			}
			c.SubmitAsync(eng, gpu.Compute, rungSize, again)
		})
	}
	key := "userlib.sync"
	if async {
		key = "userlib.async"
	}
	return l.runWindow(eng, func() int64 { return completedBy(tasks) }, key+"_ns", key+"_allocs")
}

func completedBy(tasks []*neon.Task) int64 {
	var n int64
	for _, t := range tasks {
		n += t.CompletedRequests()
	}
	return n
}

// rungCore runs two Throttle(rungSize) apps under a real scheduler,
// built with exp.NewRig.
func rungCore(l *ladder, s exp.Sched, key string) error {
	o := exp.Quick()
	o.Seed = l.seed
	a := workload.Throttle(rungSize, 0)
	b := a
	b.Name = "Throttle-b"
	rig := exp.NewRig(s, o, a, b)
	var tasks []*neon.Task
	for _, app := range rig.Apps {
		tasks = append(tasks, app.Task)
	}
	return l.runWindow(rig.Engine, func() int64 { return completedBy(tasks) }, key+"_ns", key+"_allocs")
}

// rungTraffic serves two Poisson streams at load 0.9 on one direct
// device through the traffic dispatchers, with no admission control.
func rungTraffic(l *ladder, batch bool, key string) error {
	eng := sim.NewEngine()
	rate := 0.9 / rungSize.Seconds() / 2
	streams := []traffic.Stream{
		{Tenant: workload.OpenLoopTenant("a", rungSize, 0), Arrival: traffic.Poisson{Rate: rate}},
		{Tenant: workload.OpenLoopTenant("b", rungSize, 0), Arrival: traffic.Poisson{Rate: rate}},
	}
	srv, err := traffic.New(eng, traffic.Config{
		Fleet:      fleet.Config{Devices: 1, Sched: "direct", Seed: l.seed},
		BatchDrain: batch,
		Streams:    streams,
	})
	if err != nil {
		return err
	}
	completed := func() int64 { return srv.Stats(0).Completed + srv.Stats(1).Completed }
	return l.runWindow(eng, completed, key+"_ns", key+"_allocs")
}

// rungAdmit sweeps Admission.AdmitTier over every tier and queue depth.
func rungAdmit(l *ladder) error {
	a := traffic.Admission{MaxDepth: 2 * exp.ServeAdmitDepth}
	rounds := l.scale(2000)
	return l.setRung("traffic.admit_ns", "", func() int64 {
		n := int64(0)
		for r := 0; r < rounds; r++ {
			for _, tier := range workload.Tiers() {
				for depth := 0; depth < 4*exp.ServeAdmitDepth; depth++ {
					a.AdmitTier(tier, depth)
					n++
				}
			}
		}
		return n
	})
}

// rungPlace prices one PlaceRequest plus its RequestDone.
func rungPlace(l *ladder, key string, devices int, classes []string, pol fleet.Policy) error {
	f, err := fleet.New(sim.NewEngine(), fleet.Config{Devices: devices, Classes: classes, Policy: pol})
	if err != nil {
		return err
	}
	tn := f.NewTenant(workload.OpenLoopTenant("rung", 100*time.Microsecond, 0))
	n := l.scale(200_000)
	return l.setRung(key, "", func() int64 {
		for i := 0; i < n; i++ {
			node, _ := f.PlaceRequest(tn)
			f.RequestDone(node)
		}
		return int64(n)
	})
}

// rungBoard folds 64-charge episodes into a board of 10^4 fleet-active
// principals; a unit is one charge.
func rungBoard(l *ladder) error {
	const principals, charges = 10_000, 64
	board := fleet.NewBoard()
	board.Grow(principals)
	pids := make([]core.PrincipalID, principals)
	reg := make([]core.EpisodeEntry, principals)
	for i := range pids {
		pids[i] = board.Principal(fmt.Sprintf("tenant-%06d", i))
		reg[i] = core.EpisodeEntry{Principal: pids[i], Marked: true, Active: true}
	}
	board.ReconcileEpisodeBatch("dev0", reg)
	rng := sim.NewRNG(l.seed)
	batch := make([]core.EpisodeEntry, 0, charges)
	episodes := l.scale(2000)
	return l.setRung("fleet.board_ns", "", func() int64 {
		for e := 0; e < episodes; e++ {
			batch = batch[:0]
			for k := 0; k < charges; k++ {
				batch = append(batch, core.EpisodeEntry{
					Principal: pids[rng.Intn(principals)],
					Charge:    core.WorkFor(100*time.Microsecond, 1),
					Marked:    true,
					Active:    true,
				})
			}
			board.ReconcileEpisodeBatch("dev0", batch)
		}
		return int64(episodes * charges)
	})
}

// rungDigest prices the latency digest's Add, Merge and Quantile.
func rungDigest(l *ladder) error {
	rng := sim.NewRNG(l.seed)
	vals := make([]time.Duration, 1<<16)
	for i := range vals {
		vals[i] = time.Duration(rng.Float64() * float64(5*time.Millisecond))
	}
	n := l.scale(1_000_000)
	var d metrics.Digest
	if err := l.setRung("metrics.digest_add_ns", "", func() int64 {
		for i := 0; i < n; i++ {
			d.Add(vals[i&(len(vals)-1)])
		}
		return int64(n)
	}); err != nil {
		return err
	}
	merges := l.scale(20_000)
	var acc metrics.Digest
	if err := l.setRung("metrics.digest_merge_ns", "", func() int64 {
		for i := 0; i < merges; i++ {
			acc.Merge(&d)
		}
		return int64(merges)
	}); err != nil {
		return err
	}
	qs := []float64{0.5, 0.9, 0.99, 0.999}
	return l.setRung("metrics.digest_quantile_ns", "", func() int64 {
		for i := 0; i < n/4; i++ {
			d.Quantile(qs[i&3])
		}
		return int64(n / 4)
	})
}

// rungStormBuild times traffic.New for the storm at 10^3 and 10^4
// tenants, and the heap and procs the 10^4 build leaves live.
func rungStormBuild(l *ladder) error {
	o := exp.Quick()
	o.Seed = l.seed
	small, big := 1_000, stormTenants
	if l.quick {
		big = 2_000
	}
	var perStream []float64
	for i := 0; i < rungReps; i++ {
		start := time.Now()
		if _, _, err := buildStorm(o, small, exp.DFQ); err != nil {
			return err
		}
		perStream = append(perStream, float64(time.Since(start))/1e3/float64(small))
	}
	l.out["traffic.new_us_per_stream.1e3"] = summarize(perStream).Median

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	start := time.Now()
	eng, srv, err := buildStorm(o, big, exp.DFQ)
	d := time.Since(start)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	l.out["traffic.new_us_per_stream.1e4"] = float64(d) / 1e3 / float64(big)
	l.out["storm.heap_kb_per_tenant"] = (float64(ms.HeapAlloc) - float64(heap0)) / 1024 / float64(big)
	l.out["storm.procs_per_tenant"] = float64(eng.LiveProcs()) / float64(big)
	runtime.KeepAlive(srv)
	return nil
}

// rungOpenVirtual opens 10^4 logical contexts on a 48-context device.
func rungOpenVirtual(l *ladder) error {
	n := l.scale(stormTenants)
	var opened int
	ns, _, err := perUnit(func() int64 {
		eng := sim.NewEngine()
		k := neon.NewKernel(gpu.New(eng, gpu.DefaultConfig()), passThrough{})
		opened = 0
		for i := 0; i < n; i++ {
			t := k.NewTask(fmt.Sprintf("v%d", i))
			t.Go("open", func(p *sim.Proc) {
				if _, err := k.OpenVirtual(p, t, "v", gpu.Compute); err == nil {
					opened++
				}
			})
		}
		eng.Run()
		return int64(n)
	})
	if err == nil && opened != n {
		err = fmt.Errorf("opened %d of %d logical contexts", opened, n)
	}
	l.out["neon.open_virtual_us"] = ns / 1e3
	return err
}

// rungReattach runs 64 virtual clients on a 4-context device in turn,
// so every submission after a task's first reattaches its context; a
// unit is one reattach.
func rungReattach(l *ladder) error {
	const tasks = 64
	rounds := l.scale(40)
	slot := 100 * time.Microsecond
	return l.setRung("neon.reattach_ns", "", func() int64 {
		eng := sim.NewEngine()
		cfg := gpu.DefaultConfig()
		cfg.MaxContexts = 4
		k := neon.NewKernel(gpu.New(eng, cfg), passThrough{})
		for i := 0; i < tasks; i++ {
			t := k.NewTask(fmt.Sprintf("r%d", i))
			t.Go("main", func(p *sim.Proc) {
				c, err := userlib.OpenVirtual(p, k, t, t.Name, gpu.Compute)
				if err != nil {
					return
				}
				for r := 0; r < rounds; r++ {
					p.SleepUntil(sim.Time(0).Add(sim.Duration(r*tasks+i+1) * slot))
					if req := c.SubmitSync(p, gpu.Compute, stormSize); req != nil {
						req.Release()
					}
				}
			})
		}
		eng.Run()
		return k.MuxStatus().Reattaches
	})
}

// rungLedger runs the indexed DFQ ledger's 256-flow engagement cycle
// at 10^2 and 10^5 registered flows; a unit is one charge.
func rungLedger(l *ladder) error {
	for _, c := range []struct {
		key     string
		tenants int
	}{{"core.ledger_ns.1e2", 100}, {"core.ledger_ns.1e5", 100_000}} {
		led := core.NewFlowIndex()
		led.Grow(c.tenants)
		ids := make([]core.FlowID, c.tenants)
		for i := range ids {
			ids[i] = led.Add()
		}
		working := min(256, c.tenants)
		picks := make([]int, working)
		rng := sim.NewRNG(l.seed)
		cycles := l.scale(2000)
		if err := l.setRung(c.key, "", func() int64 {
			for n := 0; n < cycles; n++ {
				for k := range picks {
					picks[k] = rng.Intn(c.tenants)
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
			return int64(cycles * working)
		}); err != nil {
			return err
		}
	}
	return nil
}

// policySnapshot is a synthetic tenant × class matrix: three device
// classes, and tenants spread over weights, orgs, tiers and demands.
func policySnapshot(tenants int) policy.Snapshot {
	s := policy.Snapshot{Classes: []policy.Class{
		{Name: "k20", Speed: 1, Devices: 4},
		{Name: "consumer", Speed: 0.5, Devices: 4},
		{Name: "nextgen", Speed: 2, Devices: 4},
	}}
	tiers := workload.Tiers()
	for i := 0; i < tenants; i++ {
		s.Tenants = append(s.Tenants, policy.Tenant{
			Name:   fmt.Sprintf("t%d", i),
			Org:    fmt.Sprintf("org%d", i%16),
			Weight: float64(int(1) << (i % 3)),
			Tier:   tiers[i%len(tiers)],
			Demand: 0.05 + 0.1*float64(i%7),
		})
	}
	return s
}

// rungPolicy times one Allocate on the synthetic snapshot.
func rungPolicy(l *ladder) error {
	for _, c := range []struct {
		key     string
		pol     policy.Policy
		tenants int
	}{
		{"policy.solve_us.maxmin.1e3", policy.MaxMin{}, 1_000},
		{"policy.solve_us.maxmin.1e5", policy.MaxMin{}, 100_000},
		{"policy.solve_us.hier.1e5", policy.Hierarchical{}, 100_000},
		{"policy.solve_us.cost.1e5", policy.CostMin{}, 100_000},
	} {
		snap := policySnapshot(l.scale(c.tenants))
		calls := max(1, 100_000/c.tenants)
		ns, _, err := perUnit(func() int64 {
			for i := 0; i < calls; i++ {
				if tg := c.pol.Allocate(snap); len(tg.Alloc) != len(snap.Tenants) {
					panic(fmt.Sprintf("%s: %d allocation rows for %d tenants", c.key, len(tg.Alloc), len(snap.Tenants)))
				}
			}
			return int64(calls)
		})
		if err != nil {
			return err
		}
		l.out[c.key] = ns / 1e3
	}
	return nil
}

// rungAllocRound runs one fleet second with 10^3 registered tenants,
// with the static allocator and without it; the difference per round
// is the allocator's cost.
func rungAllocRound(l *ladder) error {
	tenants := l.scale(1_000)
	run := func(pol policy.Policy) (time.Duration, int64, error) {
		eng := sim.NewEngine()
		f, err := fleet.New(eng, fleet.Config{
			Devices:     3,
			Classes:     exp.PolicyClasses(),
			Policy:      fleet.NewFastestFit(),
			Sched:       "dfq",
			Seed:        l.seed,
			AllocPolicy: pol,
		})
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < tenants; i++ {
			s := workload.Throttle(200*time.Microsecond, 0)
			s.Name = fmt.Sprintf("t%04d", i)
			f.NewTenant(workload.TenantSpec{Spec: s})
		}
		start := time.Now()
		eng.RunFor(time.Second)
		return time.Since(start), f.AllocRounds, nil
	}
	var with, without []float64
	var rounds int64
	for i := 0; i < rungReps; i++ {
		d, n, err := run(policy.Static{})
		if err != nil {
			return err
		}
		with = append(with, float64(d))
		rounds = n
		if d, _, err = run(nil); err != nil {
			return err
		}
		without = append(without, float64(d))
	}
	if rounds == 0 {
		return fmt.Errorf("the allocator ran no rounds")
	}
	l.out["fleet.alloc_round_us"] = (summarize(with).Median - summarize(without).Median) / 1e3 / float64(rounds)
	return nil
}
