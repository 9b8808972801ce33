package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// cell is one independently built and measured simulation: a stack
// construction, its run, and the deterministic result text that the
// correctness checks and sim_digest cover.
type cell struct {
	name string
	run  func(m *meter) (string, error)
}

// workloadDef is one benchmark workload: the cells of one pass and how
// many of them one child process runs (0: the whole pass).
type workloadDef struct {
	name     string
	perChild int
	// cells returns the pass's cells for the seed. quick shrinks the
	// simulated windows and populations for the package tests.
	cells func(seed int64, quick bool) []cell
}

var workloads = []workloadDef{
	{name: "suite", cells: suiteCells},
	{name: "pairs", cells: pairsCells},
	{name: "openloop", cells: openloopCells},
	// One storm cell holds about 400 MB that the simulator never frees,
	// so each storm cell gets its own process.
	{name: "storm", perChild: 1, cells: stormCells},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// meter collects what a cell's calls into the layers cost. Every cell
// times its stack construction (setup) and counts its simulated work;
// only a traced cell also records spans and per-layer counts.
type meter struct {
	prefix string // layer-metric prefix of the cell's phases
	tr     *tracer
	cell   int
	setup  time.Duration
	work   int64
	// layer is nil when the cell is untraced.
	layer map[string]float64
}

// phase closes the phase that began at start. A "build" phase is stack
// construction and counts toward setup.
func (m *meter) phase(name string, start time.Time) {
	d := time.Since(start)
	if name == "build" {
		m.setup += d
	}
	if m.layer != nil {
		m.layer[m.prefix+"."+name+"_ms"] += float64(d) / 1e6
		m.tr.add(name, m.prefix, m.cell, start, d)
	}
}

// count adds v to a per-layer count of a traced cell.
func (m *meter) count(key string, v float64) {
	if m.layer != nil {
		m.layer[key] += v
	}
}

// runCell runs c, turning a panic into the cell's error.
func runCell(c cell, m *meter) (res string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c.run(m)
}

// suiteCells is `neonsim -exp all -quick` at -parallel 1: one cell per
// registered experiment, in registry order. Its result texts concatenate
// to exp.RenderAll.
func suiteCells(seed int64, _ bool) []cell {
	o := exp.Quick()
	o.Seed = seed
	o.Parallel = 1
	var cells []cell
	for _, e := range exp.Registry() {
		cells = append(cells, cell{name: e.ID, run: func(m *meter) (string, error) {
			exp.ResetStats()
			start := time.Now()
			out := e.Run(o).String() + "\n"
			m.phase(e.ID, start)
			jobs, jobWall := exp.Stats()
			m.work += int64(jobs)
			m.count("exp.job_wall_ms", float64(jobWall)/1e6)
			m.count("exp.scenarios", float64(jobs))
			return out, nil
		}})
	}
	return cells
}

// pairsCells is the Figure 6/7 closed-loop matrix at paper windows:
// four applications against Throttle at three sizes under the three
// schedulers, each pair on its own device.
func pairsCells(seed int64, quick bool) []cell {
	var cells []cell
	for _, app := range []string{"DCT", "FFT", "glxgears", "oclParticles"} {
		spec, ok := workload.ByName(app)
		if !ok {
			panic(fmt.Sprintf("bench: no application %q", app))
		}
		for _, usz := range []float64{19, 191, 1700} {
			thr := workload.Throttle(time.Duration(usz*float64(time.Microsecond)), 0)
			for _, s := range []exp.Sched{exp.TS, exp.DTS, exp.DFQ} {
				o := windows(quick)
				o.Seed = sim.StreamSeed(seed, "pairs", len(cells))
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/thr%.0f/%s", app, usz, s),
					run: func(m *meter) (string, error) {
						rounds, err := runPair(m, o, s, spec, thr)
						return fmt.Sprint(rounds), err
					},
				})
			}
		}
	}
	return cells
}

// windows returns the paper's windows, or the quick ones for tests.
func windows(quick bool) exp.Options {
	if quick {
		return exp.Quick()
	}
	return exp.Full()
}

// runPair builds one closed-loop pair with exp.NewRig and measures it
// the way Rig.Measure does, timing warmup and measurement apart. It
// returns each app's average round time.
func runPair(m *meter, o exp.Options, s exp.Sched, specs ...workload.Spec) ([]sim.Duration, error) {
	start := time.Now()
	rig := exp.NewRig(s, o, specs...)
	m.phase("build", start)

	start = time.Now()
	rig.Engine.RunFor(o.Warmup)
	for _, a := range rig.Apps {
		a.ResetStats()
	}
	m.phase("warmup", start)
	start = time.Now()
	rig.Engine.RunFor(o.Measure)
	m.phase("measure", start)

	rounds := make([]sim.Duration, len(rig.Apps))
	for i, a := range rig.Apps {
		if err := a.SetupError(); err != nil {
			return nil, fmt.Errorf("app %s setup: %w", a.Task.Name, err)
		}
		if !a.Alive() {
			return nil, fmt.Errorf("app %s ended: %s", a.Task.Name, a.Task.ExitReason)
		}
		rounds[i] = a.AvgRound()
		m.work += a.Task.CompletedRequests()
	}
	m.count("neon.faults", float64(rig.Kernel.TotalFaults))
	if d, ok := rig.Kernel.Scheduler().(*core.DisengagedFairQueueing); ok {
		m.count("core.dfq_cycles", float64(d.Cycles))
		m.count("core.dfq_denials", float64(d.Denials))
	}
	return rounds, nil
}

// openloopCells is the serve population on two locality-sticky devices:
// two loads under the three schedulers with admission on, the same six
// with admission off, and one batched-drain row.
func openloopCells(seed int64, quick bool) []cell {
	type spec struct {
		load         float64
		sched        string
		admit, batch bool
	}
	var specs []spec
	for _, admit := range []bool{true, false} {
		for _, load := range []float64{0.9, 1.4} {
			for _, sched := range exp.ServeSchedNames() {
				specs = append(specs, spec{load, sched, admit, false})
			}
		}
	}
	specs = append(specs, spec{1.4, "dfq", true, true})
	cells := make([]cell, len(specs))
	for i, c := range specs {
		o := windows(quick)
		o.Seed = sim.StreamSeed(seed, "openloop", i)
		cells[i] = cell{
			name: fmt.Sprintf("load%.1f/%s/admit=%v/batch=%v", c.load, c.sched, c.admit, c.batch),
			run: func(m *meter) (string, error) {
				res, tot, err := runServe(m, o, c.load, c.sched, c.admit, c.batch)
				return fmt.Sprintf("%+v %+v", res, tot), err
			},
		}
	}
	return cells
}

// serveTotals are a serve cell's counts over warmup and measurement
// together.
type serveTotals struct {
	Arrivals, Shed, Completed int64
	Flushes, Batched          int64
}

// runServe builds and measures one serve cell exactly as
// exp.RunServeCell does for the "sticky" placement, with the batched
// drain as an extra switch.
func runServe(m *meter, o exp.Options, load float64, sched string, admit, batch bool) (exp.ServeResult, serveTotals, error) {
	var tot serveTotals
	start := time.Now()
	eng := sim.NewEngine()
	devices := o.ServeFleetSize()
	depth := 0
	if admit {
		depth = exp.ServeAdmitDepth * devices
	}
	streams := exp.ServePopulation(devices, load)
	srv, err := traffic.New(eng, traffic.Config{
		Fleet: fleet.Config{
			Devices:  devices,
			Classes:  o.Classes,
			Policy:   fleet.NewLocalitySticky(exp.ServeAdmitDepth),
			Sched:    sched,
			RunLimit: o.RunLimit,
			Seed:     o.Seed,
		},
		AdmitDepth: depth,
		BatchDrain: batch,
		Streams:    streams,
	})
	m.phase("build", start)
	if err != nil {
		return exp.ServeResult{}, tot, err
	}

	addTotals := func() {
		for i := range streams {
			st := srv.Stats(i)
			tot.Arrivals += st.Arrivals
			tot.Shed += st.Shed
			tot.Completed += st.Completed
			tot.Flushes += st.Flushes
			tot.Batched += st.Batched
		}
	}
	start = time.Now()
	eng.RunFor(o.Warmup)
	addTotals()
	srv.ResetStats()
	m.phase("warmup", start)
	start = time.Now()
	eng.RunFor(o.Measure)
	m.phase("measure", start)
	if err := srv.SetupError(); err != nil {
		return exp.ServeResult{}, tot, fmt.Errorf("serve stream setup: %w", err)
	}

	start = time.Now()
	res := exp.ServeResult{Load: load, Sched: sched, Place: "sticky", Admission: admit}
	var all metrics.Digest
	var arrivals, shed, completed int64
	for i, s := range streams {
		st := srv.Stats(i)
		all.Merge(&st.Latency)
		arrivals += st.Arrivals
		shed += st.Shed
		completed += st.Completed
		if s.Tenant.Name == "victim" {
			res.VictimP99 = st.Latency.Quantile(0.99)
		}
	}
	res.P50 = all.Quantile(0.50)
	res.P95 = all.Quantile(0.95)
	res.P99 = all.Quantile(0.99)
	res.GoodputPerSec = float64(completed) / o.Measure.Seconds()
	if arrivals > 0 {
		res.ShedRate = float64(shed) / float64(arrivals)
	}
	res.QueueDepth = srv.Fleet().QueueDepth()
	util := 0.0
	for _, n := range srv.Fleet().Nodes() {
		util += n.Utilization(o.Measure)
	}
	res.Utilization = util / float64(len(srv.Fleet().Nodes()))
	addTotals()
	m.phase("collect", start)

	if tot.Completed+tot.Shed > tot.Arrivals {
		return res, tot, fmt.Errorf("invariant: completed %d + shed %d > arrivals %d",
			tot.Completed, tot.Shed, tot.Arrivals)
	}
	m.work += tot.Completed
	m.count("openloop.arrivals", float64(tot.Arrivals))
	m.count("openloop.shed", float64(tot.Shed))
	m.count("openloop.flushes", float64(tot.Flushes))
	m.count("openloop.batched", float64(tot.Batched))
	for i := range streams {
		m.count("traffic.cold_ms", float64(srv.Stats(i).ColdTime)/1e6)
	}
	m.count("fleet.qdepth_end", float64(res.QueueDepth))
	return res, tot, nil
}

// The full-stack storm: the scale experiment's "+mux" rows, whose
// parameters exp keeps unexported. The package test pins these copies
// against exp.RunScaleFullCell.
const (
	stormTenants  = 10_000
	stormContexts = 48
	stormSize     = 5 * time.Microsecond
	stormWaves    = 3
)

// stormCells is the 10^4-tenant full-stack storm under timeslice and
// DFQ at quick windows.
func stormCells(seed int64, quick bool) []cell {
	tenants := stormTenants
	if quick {
		tenants = 1_000
	}
	var cells []cell
	for i, s := range exp.ScaleScheds() {
		o := exp.Quick()
		o.Seed = sim.StreamSeed(seed, "storm", i)
		cells = append(cells, cell{
			name: fmt.Sprintf("%d/%s", tenants, s),
			run: func(m *meter) (string, error) {
				res, err := runStorm(m, o, tenants, s)
				return fmt.Sprintf("%+v", res), err
			},
		})
	}
	return cells
}

// buildStorm builds the storm's server the way exp.RunScaleFullCell
// does: `tenants` staggered open-loop streams on one 48-context device.
func buildStorm(o exp.Options, tenants int, sched exp.Sched) (*sim.Engine, *traffic.Server, error) {
	eng := sim.NewEngine()
	gap := (o.Warmup + o.Measure) / stormWaves
	streams := make([]traffic.Stream, tenants)
	for i := range streams {
		phase := gap * sim.Duration(i+1) / sim.Duration(tenants)
		streams[i] = traffic.Stream{
			Tenant:  workload.OpenLoopTenant(fmt.Sprintf("t%d", i), stormSize, 0),
			Arrival: &traffic.Staggered{Phase: phase, Gap: gap},
		}
	}
	srv, err := traffic.New(eng, traffic.Config{
		Fleet: fleet.Config{
			Devices: 1,
			GPU:     gpu.Config{MaxContexts: stormContexts},
			Sched:   string(sched),
			DFQ: core.DFQConfig{
				SamplePeriod:   500 * time.Microsecond,
				SampleRequests: 4,
			},
			Seed: o.Seed,
		},
		Streams: streams,
	})
	return eng, srv, err
}

// runStorm builds and measures one storm cell and checks its
// invariants: every tenant is a live task, and no more hardware
// contexts were ever attached than the device has.
func runStorm(m *meter, o exp.Options, tenants int, sched exp.Sched) (exp.ScaleFullResult, error) {
	start := time.Now()
	eng, srv, err := buildStorm(o, tenants, sched)
	m.phase("build", start)
	if err != nil {
		return exp.ScaleFullResult{}, err
	}
	completed := func() int64 {
		var n int64
		for i := 0; i < tenants; i++ {
			n += srv.Stats(i).Completed
		}
		return n
	}
	start = time.Now()
	eng.RunFor(o.Warmup)
	warm := completed()
	srv.ResetStats()
	m.phase("warmup", start)
	start = time.Now()
	eng.RunFor(o.Measure)
	m.phase("measure", start)
	if err := srv.SetupError(); err != nil {
		return exp.ScaleFullResult{}, fmt.Errorf("storm setup: %w", err)
	}

	node := srv.Fleet().Nodes()[0]
	mux := node.Kernel.MuxStatus()
	res := exp.ScaleFullResult{
		Tenants:    tenants,
		Sched:      sched,
		Tasks:      len(node.Kernel.Tasks()),
		HWContexts: mux.MaxAttached,
		Reattaches: mux.Reattaches,
		Evictions:  mux.Evictions,
		Completed:  completed(),
	}
	res.GoodputPerSec = float64(res.Completed) / o.Measure.Seconds()
	if d := node.DFQ(); d != nil {
		res.Cycles = d.Cycles
	}
	if res.Tasks != tenants {
		return res, fmt.Errorf("invariant: %d live tasks for %d tenants", res.Tasks, tenants)
	}
	if res.HWContexts > stormContexts {
		return res, fmt.Errorf("invariant: %d hardware contexts attached, device has %d", res.HWContexts, stormContexts)
	}
	m.work += warm + res.Completed
	m.count("neon.reattaches", float64(mux.Reattaches))
	m.count("neon.evictions", float64(mux.Evictions))
	m.count("neon.attach_waits", float64(mux.AttachWaits))
	m.count("storm.attaches", float64(mux.Attaches))
	if m.layer != nil && float64(mux.MaxAttached) > m.layer["neon.hwctx_peak"] {
		m.layer["neon.hwctx_peak"] = float64(mux.MaxAttached)
	}
	return res, nil
}
