package exp

// The scale experiment: indexed fair queueing at large tenant counts.
// The paper's DFQ keeps per-tenant virtual-time state for a handful of
// applications; 10^5 tenants is more than the simulated GPU stack can
// host directly (a device exposes 48 channels). So this experiment
// drives the scheduling *state machinery* itself — a core.Ledger per
// device reconciling through a fleet.Board, which keeps its own
// FlowIndex — with a synthetic open-loop engagement cycle: each cycle a
// bounded working set of tenants is activated and handed to the
// production episode routine, core.Ledger.Episode, the one
// core.DisengagedFairQueueing and core.OracleFairQueueing call. It
// charges each granted tenant its estimated share of the engagement
// window, folds the charges into the fleet-wide system virtual time,
// and denies a tenant whose fleet lead reaches the free-run horizon.
// Tenant count sweeps 10²→10⁵ while the per-cycle working set stays
// fixed, so any O(tenants) step in the ledger or the board would
// surface as allocations (and wall time) growing with the population;
// the table pins allocs/request flat and the weighted lead bound
// holding at every scale. Wall-clock scaling is benchmarked separately
// (BenchmarkDFQCycleTenants*, BENCH_7.json) — the golden table only
// carries deterministic columns.

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
	"time"
)

// DefaultScaleTenants is the tenant-count sweep: two decades per step
// from the paper's regime to the fleet-scale one.
func DefaultScaleTenants() []int { return []int{100, 1_000, 10_000, 100_000} }

// ScaleTenants resolves the sweep for these Options: the -tenants
// override replaces it with exactly the given counts.
func (o Options) ScaleTenants() []int {
	if len(o.Tenants) > 0 {
		return o.Tenants
	}
	return DefaultScaleTenants()
}

// ScaleScheds returns the harness's scheduler sweep: round-robin
// timeslice tokens against the indexed DFQ ledger.
func ScaleScheds() []Sched { return []Sched{TS, DFQ} }

// The synthetic engagement cycle's fixed parameters.
const (
	// scaleDevices is the fleet width: two ledgers reconciling through
	// one board, enough for multi-device leads without dominating cost.
	scaleDevices = 2
	// scaleWorkingSet bounds the tenants engaged per device cycle — the
	// channel-pool reality that only a bounded set runs at once no
	// matter how many tenants exist.
	scaleWorkingSet = 256
	// scaleActiveCycles is how many cycles a picked tenant stays active
	// (backlogged) before idling out and forfeiting credit.
	scaleActiveCycles = 4
	// scaleChurnEvery and scaleChurnCount recycle tenant slots
	// (remove + re-register) to exercise generation-counted handles.
	scaleChurnEvery = 50
	scaleChurnCount = 8
	// scaleWindow and scaleFreeRun are the engagement window and
	// disengaged free run of the synthetic cycle (the paper's 30ms
	// window, FreeRunMultiplier 5).
	scaleWindow  = 30 * time.Millisecond
	scaleFreeRun = 5 * scaleWindow
)

// ScaleResult is one cell of the scale grid.
type ScaleResult struct {
	Tenants int
	Sched   Sched

	// Requests is the number of engagement grants charged; Cycles the
	// per-device cycles run.
	Requests int64
	Cycles   int
	// ReqPerSec is requests per simulated second (cycles x window).
	ReqPerSec float64
	// AllocsPerReq is deterministic structural allocations (ledger
	// registrations plus slab/heap growth) per request.
	AllocsPerReq float64
	// BoundRatio is the worst observed fleet-wide lead over the weighted
	// lead bound (freeRun + devices x window / minWeight); InBound
	// reports ratio <= 1. DFQ only.
	BoundRatio float64
	InBound    bool
}

// RunScaleCell runs the synthetic engagement harness for one tenant
// count under one scheduler. Every draw comes from the cell's forked
// seed, so cells are deterministic at any pool width.
func RunScaleCell(o Options, tenants int, sched Sched) ScaleResult {
	rng := sim.NewRNG(o.Seed)
	res := ScaleResult{Tenants: tenants, Sched: sched}

	// One pass visits every tenant once in expectation; the measurement
	// window scales passes so full runs sweep the population harder.
	// Requests scale with tenants x passes while registrations scale
	// with tenants, which is what keeps allocs/request flat across the
	// sweep — the table's sub-linearity signal.
	passes := int(o.Measure / (200 * time.Millisecond))
	if passes < 1 {
		passes = 1
	}
	if passes > 10 {
		passes = 10
	}
	working := scaleWorkingSet
	if working > tenants {
		working = tenants
	}
	cycles := (tenants + working - 1) / working * passes

	weight := func(i int) float64 { return float64(int(1) << (i % 3)) } // {1,2,4}
	est := func(i int) sim.Duration { return sim.Duration(1+i%7) * 100 * time.Microsecond }

	switch sched {
	case TS:
		// Timeslice tokens: every working-set member gets an equal slice
		// of the window. No virtual time, no cross-device fairness — the
		// baseline whose bookkeeping is trivially O(working set).
		tokens := make([]core.Work, tenants)
		allocs := int64(1) // the token slab
		slice := core.WorkFor(scaleWindow, 1) / core.Work(working)
		for c := 0; c < cycles; c++ {
			for d := 0; d < scaleDevices; d++ {
				for k := 0; k < working; k++ {
					tokens[rng.Intn(tenants)] += slice
					res.Requests++
				}
			}
		}
		res.Cycles = cycles
		res.AllocsPerReq = float64(allocs+int64(tenants)) / float64(res.Requests)
	case DFQ:
		res = runScaleDFQ(res, rng, tenants, working, cycles, weight, est)
	default:
		panic(fmt.Sprintf("exp: scale does not model scheduler %q", sched))
	}
	res.ReqPerSec = float64(res.Requests) /
		(sim.Duration(res.Cycles) * scaleWindow).Seconds()
	return res
}

// runScaleDFQ is the DFQ arm: per-device ledgers and a fleet board,
// each device cycle one core.Ledger.Episode over a rolling active set.
func runScaleDFQ(res ScaleResult, rng *sim.RNG, tenants, working, cycles int,
	weight func(int) float64, est func(int) sim.Duration) ScaleResult {
	board := fleet.NewBoard()
	board.Grow(tenants)
	pids := make([]core.PrincipalID, tenants)
	for i, name := range tenantNames(tenants) {
		// Interning upfront instead of on first charge is equivalent: a
		// principal stays heap-idle until first activated, and every idle
		// read/charge/activation clamps its virtual time up to the system
		// virtual time — the same value late registration would start at.
		pids[i] = board.Principal(name)
	}

	type device struct {
		name       string
		ledger     core.Ledger
		ids        []core.FlowID
		lastPicked []int32 // cycle a tenant was last engaged on this device
		expire     [][]int // ring of past working sets, for idling out
	}
	devs := make([]*device, scaleDevices)
	for d := range devs {
		dev := &device{
			name:       fmt.Sprintf("dev%d", d),
			ids:        make([]core.FlowID, tenants),
			lastPicked: make([]int32, tenants),
			expire:     make([][]int, scaleActiveCycles),
		}
		dev.ledger.Grow(tenants)
		for i := range dev.ids {
			dev.ids[i] = dev.ledger.Add()
			dev.lastPicked[i] = -1
		}
		devs[d] = dev
	}

	windowW := core.WorkFor(scaleWindow, 1)
	freeRunW := core.WorkFor(scaleFreeRun, 1)
	// The weighted fleet lead bound: once a tenant's lead crosses the
	// free-run horizon it is denied on every device, so the overshoot is
	// at most one more cycle of charges from each device, each at most
	// window/weight (and the minimum weight here is 1).
	bound := freeRunW + core.Work(scaleDevices)*windowW

	denied := make([]bool, tenants)
	// The episode's entries and their tenants: this cycle's picks, then
	// the tenants idling out.
	es := make([]core.Entry, 0, 2*working)
	who := make([]int, 0, 2*working)
	entry := func(dev *device, i int, active bool) core.Entry {
		return core.Entry{Flow: dev.ids[i], Principal: pids[i], Weight: weight(i),
			Active: active, Denied: denied[i], Use: est(i)}
	}
	var maxLead core.Work

	for c := 0; c < cycles; c++ {
		for _, dev := range devs {
			// Engage this cycle's working set. A tenant picked twice is
			// charged twice, each time its estimated share of the window;
			// a denied pick is charged nothing.
			es, who = es[:0], who[:0]
			for k := 0; k < working; k++ {
				i := rng.Intn(tenants)
				es = append(es, entry(dev, i, true))
				who = append(who, i)
				dev.lastPicked[i] = int32(c)
				if !denied[i] {
					res.Requests++
				}
			}

			// Tenants unseen for scaleActiveCycles cycles idle out and
			// forfeit unused credit, locally and on the board.
			slot := c % scaleActiveCycles
			for _, i := range dev.expire[slot] {
				if dev.lastPicked[i] <= int32(c-scaleActiveCycles) {
					es = append(es, entry(dev, i, false))
					who = append(who, i)
				}
			}
			dev.expire[slot] = append(dev.expire[slot][:0], who[:working]...)

			dev.ledger.Episode(es, core.EpisodeParams{Window: scaleWindow, Horizon: scaleFreeRun,
				Speed: 1, Fleet: board, Device: dev.name})
			for j, i := range who {
				denied[i] = es[j].Denied
				maxLead = max(maxLead, es[j].Lead)
			}
		}

		// Churn: unregister and re-register a few tenants so slot recycling
		// and stale-handle rejection stay on the measured path.
		if (c+1)%scaleChurnEvery == 0 {
			for k := 0; k < scaleChurnCount; k++ {
				i := rng.Intn(tenants)
				for _, dev := range devs {
					dev.ledger.Remove(dev.ids[i])
					dev.ids[i] = dev.ledger.Add()
					dev.lastPicked[i] = -1
				}
				denied[i] = false
			}
		}
	}

	var allocs int64
	for _, dev := range devs {
		allocs += dev.ledger.StructuralAllocs()
	}
	res.Cycles = cycles
	if res.Requests > 0 {
		res.AllocsPerReq = float64(allocs) / float64(res.Requests)
	}
	res.BoundRatio = float64(maxLead) / float64(bound)
	res.InBound = maxLead <= bound
	return res
}

// Full-stack storm parameters: one device hosting the whole logical
// population through the kernel's virtual-context multiplexer.
const (
	// scaleFullContexts is the device's hardware-context pool — the cap
	// the logical population overshoots by orders of magnitude, which is
	// exactly what the mux exists to absorb.
	scaleFullContexts = 48
	// scaleFullSize is each storm request's service time: small enough
	// that tens of thousands of requests fit one device's window.
	scaleFullSize = 5 * time.Microsecond
	// scaleFullWaves is how many staggered arrival waves the run spreads
	// over warmup+measure. Every wave past a tenant's first arrives long
	// after its context was evicted for other tenants, so each pays the
	// paper's context-switch cost to reattach — the reattach column.
	scaleFullWaves = 3
)

// DefaultScaleFullTenants is the full-stack storm sweep: both counts
// far past the 48-hardware-context cap, the larger at the 10^4 mark the
// synthetic harness could only reach as bookkeeping.
func DefaultScaleFullTenants() []int { return []int{1_000, 10_000} }

// ScaleFullResult is one full-stack storm cell: a real end-to-end run —
// open-loop arrivals through admission-free traffic dispatch, userlib
// clients on logical (virtual-context) handles, the kernel scheduler,
// and the simulated device — not the synthetic ledger harness.
type ScaleFullResult struct {
	Tenants int
	Sched   Sched

	// Tasks is the live kernel-task population at the end of the run —
	// one logical context per tenant, all simultaneously open.
	Tasks int
	// HWContexts is the peak number of hardware contexts ever attached;
	// it must never exceed the device's 48-context pool.
	HWContexts int
	// Reattaches counts LRU re-binds of a previously evicted logical
	// context (each charged the context-switch cost); Evictions counts
	// the graceful detaches that made room.
	Reattaches int64
	Evictions  int64
	// Completed counts requests served within the measurement window;
	// Cycles is the DFQ engagement-cycle count (0 under timeslice).
	Completed int64
	Cycles    int64
	// GoodputPerSec is Completed over the measurement window.
	GoodputPerSec float64
}

// RunScaleFullCell runs one full-stack storm: `tenants` open-loop
// streams, each a live kernel task on a single 48-context device, every
// request submitted through a virtual-context handle. Admission control
// stays off — the point is hosting the whole population as tasks, not
// shedding it at the front door — and the staggered arrival comb keeps
// the offered load uniform instead of a time-zero spike.
func RunScaleFullCell(o Options, tenants int, sched Sched) ScaleFullResult {
	srv := serve(o, scaleFullConfig(o, tenants, sched))

	node := srv.Fleet().Nodes()[0]
	mux := node.Kernel.MuxStatus()
	res := ScaleFullResult{
		Tenants:    tenants,
		Sched:      sched,
		Tasks:      len(node.Kernel.Tasks()),
		HWContexts: mux.MaxAttached,
		Reattaches: mux.Reattaches,
		Evictions:  mux.Evictions,
	}
	for i := 0; i < tenants; i++ {
		res.Completed += srv.Stats(i).Completed
	}
	res.GoodputPerSec = float64(res.Completed) / o.Measure.Seconds()
	if d := node.DFQ(); d != nil {
		res.Cycles = d.Cycles
	}
	// The acceptance invariants, not just table data: the population is
	// really hosted, and the hardware pool was never overcommitted.
	if res.Tasks < tenants {
		panic(fmt.Sprintf("exp: scale full-stack: only %d of %d tenants became live tasks",
			res.Tasks, tenants))
	}
	if res.HWContexts > scaleFullContexts {
		panic(fmt.Sprintf("exp: scale full-stack: %d hardware contexts attached, device cap %d",
			res.HWContexts, scaleFullContexts))
	}
	return res
}

// scaleFullConfig is the storm's serving stack: `tenants` staggered
// open-loop streams on one 48-context device under sched.
func scaleFullConfig(o Options, tenants int, sched Sched) traffic.Config {
	gap := (o.Warmup + o.Measure) / scaleFullWaves
	streams := make([]traffic.Stream, tenants)
	names := tenantNames(tenants)
	for i := range streams {
		// Phases spread evenly over one gap, so the last stream's first
		// arrival lands at `gap` and every stream fires scaleFullWaves
		// times (give or take one) before the run ends.
		phase := gap * sim.Duration(i+1) / sim.Duration(tenants)
		streams[i] = traffic.Stream{
			Tenant:  workload.OpenLoopTenant(names[i], scaleFullSize, 0),
			Arrival: &traffic.Staggered{Phase: phase, Gap: gap},
		}
	}
	return traffic.Config{
		Fleet: fleet.Config{
			Devices: 1,
			GPU:     gpu.Config{MaxContexts: scaleFullContexts},
			Sched:   string(sched),
			// Short sampling runs: with 48 attached tasks an engagement
			// episode at the paper's 5 ms per-task cap could not finish
			// inside a quick measurement window.
			DFQ: core.DFQConfig{
				SamplePeriod:   500 * time.Microsecond,
				SampleRequests: 4,
			},
		},
		Streams: streams,
	}
}

// tenantNames returns the names "t0" … "t<n-1>" as substrings of one
// string: a handful of allocations for the lot, where formatting each
// name costs two.
func tenantNames(n int) []string {
	buf := make([]byte, 0, n*(1+len(strconv.Itoa(n))))
	ends := make([]int, n)
	for i := range ends {
		buf = append(buf, 't')
		buf = strconv.AppendInt(buf, int64(i), 10)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

// row renders the cell as a scale-table row.
func (res ScaleResult) row() []string {
	bound := "-"
	if res.Sched == DFQ {
		verdict := "ok"
		if !res.InBound {
			verdict = "VIOL"
		}
		bound = fmt.Sprintf("%s %.2f", verdict, res.BoundRatio)
	}
	return []string{
		fmt.Sprintf("%d", res.Tenants),
		string(res.Sched),
		fmt.Sprintf("%d", res.Cycles),
		fmt.Sprintf("%d", res.Requests),
		report.F(res.ReqPerSec, 0),
		report.F(res.AllocsPerReq, 3),
		bound,
		"-", "-", "-",
	}
}

// row renders the storm as a scale-table row.
func (res ScaleFullResult) row() []string {
	cyc := "-"
	if res.Sched == DFQ {
		cyc = fmt.Sprintf("%d", res.Cycles)
	}
	return []string{
		fmt.Sprintf("%d", res.Tenants),
		string(res.Sched) + "+mux",
		cyc,
		fmt.Sprintf("%d", res.Completed),
		report.F(res.GoodputPerSec, 0),
		"-",
		"-",
		fmt.Sprintf("%d", res.Tasks),
		fmt.Sprintf("%d", res.HWContexts),
		fmt.Sprintf("%d", res.Reattaches),
	}
}

// The deep rows (Options.DeepScale / cmd/neonsim -deep): a 10^6-tenant
// ledger population through the synthetic harness, and a
// 10^5-tenant full-stack storm — another decade past each sweep's top.
// They append after the standard grid, so the standard rows (and their
// forked seeds) are byte-identical whether the deep rows run or not;
// testdata/scale_deep.golden pins the extended table.
const (
	// scaleDeepTenants is the deep synthetic-ledger population.
	scaleDeepTenants = 1_000_000
	// scaleDeepFullTenants is the deep full-stack storm population.
	scaleDeepFullTenants = 100_000
)

// ScaleExp sweeps tenant count x scheduler through the synthetic
// ledger harness, then runs the full-stack storm rows, every cell on
// one grid.
func ScaleExp(opts Options) *report.Table {
	type cell struct {
		tenants int
		sched   Sched
		full    bool // a full-stack storm, not the synthetic harness
	}
	var cells []cell
	for _, n := range opts.ScaleTenants() {
		for _, s := range ScaleScheds() {
			cells = append(cells, cell{n, s, false})
		}
	}
	for _, n := range DefaultScaleFullTenants() {
		for _, s := range ScaleScheds() {
			cells = append(cells, cell{n, s, true})
		}
	}
	if opts.DeepScale {
		cells = append(cells, cell{scaleDeepTenants, DFQ, false}, cell{scaleDeepFullTenants, DFQ, true})
	}
	rows := grid(opts, "scale", cells, func(o Options, c cell) []string {
		if c.full {
			return RunScaleFullCell(o, c.tenants, c.sched).row()
		}
		return RunScaleCell(o, c.tenants, c.sched).row()
	})

	t := report.New("Scale: indexed fair queueing + virtual-context mux, 10^2..10^5 tenants",
		"tenants", "sched", "cycles", "requests", "req/s(sim)", "allocs/req", "bound", "tasks", "hwctx", "reattach")
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("each cycle engages a %d-tenant working set per device; idle tenants must cost nothing, so allocs/req staying flat across 10^2..10^5 tenants is the sub-linear claim", scaleWorkingSet)
	t.AddNote("allocs/req counts deterministic structural allocations (flow registrations + slab/heap growth), not runtime allocations — those are gated in BENCH_8.json (BenchmarkDFQCycleTenants*, BenchmarkBoardReconcile)")
	t.AddNote("bound is worst fleet-wide lead over the weighted bound freeRun + devices x window/minWeight; ts has no virtual-time ledger to bound")
	t.AddNote("+mux rows are real end-to-end storms, not the synthetic harness: every tenant is a live kernel task on one %d-context device, multiplexed by the kernel's virtual-context table (tasks = logical contexts hosted, hwctx = peak hardware contexts attached, reattach = LRU re-binds each paying the context-switch cost)", scaleFullContexts)
	if opts.DeepScale {
		t.AddNote("deep rows (-deep): the 10^6-tenant synthetic ledger and the 10^5-tenant full-stack storm, appended after the standard grid so the standard rows stay byte-identical to the quick golden")
	}
	return t
}
