package exp

// The serve experiment: open-loop traffic against the fleet. Closed-loop
// co-runners (the paper's evaluation) slow their submission rate when
// the system slows down; open-loop users do not, so only this experiment
// can show tail-latency percentiles, overload behavior past load factor
// 1.0, and what admission control buys.

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// DefaultServeLoads is the serve experiment's load-factor sweep:
// comfortable, near-saturation, just past, and deep overload.
var DefaultServeLoads = []float64{0.6, 0.9, 1.1, 1.4}

// ServeDevices is the fleet size every serve cell runs on.
const ServeDevices = 2

// ServeAdmitDepth is the admission controller's queue-depth bound per
// device: ~48 mean-sized requests of backlog (roughly 15 ms) before the
// front door sheds.
const ServeAdmitDepth = 48

// ServeLoads resolves the load sweep for these Options.
func (o Options) ServeLoads() []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	return DefaultServeLoads
}

// ServeSchedNames lists the per-device scheduler policies the serve
// grid compares: engaged timeslice, token-passing disengaged timeslice,
// and disengaged fair queueing.
func ServeSchedNames() []string { return []string{"ts", "dts", "dfq"} }

// ServePlaceNames lists the placement policies the serve grid compares.
func ServePlaceNames() []string { return []string{"rr", "sticky"} }

// ServePopulation returns the serve tenant mix for a fleet of the given
// size at the given load factor. Rates are calibrated so the aggregate
// offered device time equals load x devices:
//
//   - two Poisson "user" aggregates (250 µs requests, 35% of load),
//   - one diurnally modulated "web" stream (200 µs, 15%),
//   - one deterministic "victim" probe (80 µs, 5%) — the stream whose
//     p99 the fair schedulers must protect,
//   - one MMPP "adversary" (500 µs, 45%): silent between bursts, ~4x
//     its mean rate during them, so each burst alone exceeds fleet
//     capacity even when the long-run load factor is below 1.
func ServePopulation(devices int, load float64) []traffic.Stream {
	const us = time.Microsecond
	budget := load * float64(devices) // offered device-seconds per second
	rate := func(weight float64, size sim.Duration) float64 {
		return budget * weight / size.Seconds()
	}
	return []traffic.Stream{
		{Tenant: workload.OpenLoopTenant("user-a", 250*us, 500*us),
			Arrival: traffic.Poisson{Rate: rate(0.175, 250*us)}},
		{Tenant: workload.OpenLoopTenant("user-b", 250*us, 500*us),
			Arrival: traffic.Poisson{Rate: rate(0.175, 250*us)}},
		{Tenant: workload.OpenLoopTenant("web", 200*us, 400*us),
			Arrival: traffic.Diurnal{Base: rate(0.15, 200*us), Amplitude: 0.8, Period: 100 * time.Millisecond}},
		{Tenant: workload.OpenLoopTenant("victim", 80*us, 150*us),
			Arrival: traffic.Deterministic{Rate: rate(0.05, 80*us)}},
		{Tenant: workload.OpenLoopTenant("adversary", 500*us, 800*us),
			Arrival: traffic.NewMMPP(0, 4*rate(0.45, 500*us), 30*time.Millisecond, 10*time.Millisecond)},
	}
}

// ServeResult is one cell of the serve grid.
type ServeResult struct {
	Load      float64
	Sched     string
	Place     string
	Admission bool

	// P50/P95/P99 are sojourn-time percentiles over every stream's
	// completed requests; VictimP99 is the deterministic probe's tail.
	P50, P95, P99 time.Duration
	VictimP99     time.Duration
	// GoodputPerSec counts completed requests per second, fleet-wide.
	GoodputPerSec float64
	// ShedRate is the front door's shed fraction of all arrivals.
	ShedRate float64
	// QueueDepth is the fleet-wide backlog at the end of the window —
	// bounded by admission, unbounded growth without it.
	QueueDepth int
	// Utilization is summed device busy time over devices x window.
	Utilization float64
}

// ServeFleetSize resolves the serve fleet's device count for these
// Options: one device per -classes entry when a mix is given (so the
// fleet is exactly the requested composition, never a truncation of
// it), ServeDevices otherwise.
func (o Options) ServeFleetSize() int {
	if len(o.Classes) > 0 {
		return len(o.Classes)
	}
	return ServeDevices
}

// RunServeCell serves the open-loop population for one (load,
// scheduler, placement, admission) point and measures it.
func RunServeCell(o Options, load float64, sched, place string, admit bool) ServeResult {
	var policy fleet.Policy
	switch place {
	case "sticky":
		// Request-level placement queues far deeper than round-level: a
		// tenant's warm device is worth staying on until its backlog
		// reaches the admission controller's per-device bound.
		policy = fleet.NewLocalitySticky(ServeAdmitDepth)
	default:
		p, err := fleet.NewPolicy(place)
		if err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
		policy = p
	}
	devices := o.ServeFleetSize()
	depth := 0
	if admit {
		depth = ServeAdmitDepth * devices
	}
	streams := ServePopulation(devices, load)
	srv := serve(o, traffic.Config{
		Fleet: fleet.Config{
			Devices: devices,
			Classes: o.Classes,
			Policy:  policy,
			Sched:   sched,
		},
		AdmitDepth: depth,
		Streams:    streams,
	})

	res := ServeResult{Load: load, Sched: sched, Place: place, Admission: admit}
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
	res.Utilization = fleetUtilization(srv.Fleet(), o.Measure)
	return res
}

// fleetUtilization is the mean per-node busy fraction of the window —
// the shared utilization column of the fleet, serve, and hetero tables.
func fleetUtilization(f *fleet.Fleet, window sim.Duration) float64 {
	util := 0.0
	for _, n := range f.Nodes() {
		util += n.Utilization(window)
	}
	return util / float64(len(f.Nodes()))
}

// ServeExp sweeps load factor x scheduler x placement with admission
// on, plus one admission-off row per scheduler at the deepest overload
// point, every cell on the grid.
func ServeExp(opts Options) *report.Table {
	type cell struct {
		load  float64
		sched string
		place string
		admit bool
	}
	var cells []cell
	loads := opts.ServeLoads()
	for _, load := range loads {
		for _, sched := range ServeSchedNames() {
			for _, place := range ServePlaceNames() {
				cells = append(cells, cell{load, sched, place, true})
			}
		}
	}
	worst := loads[0]
	for _, l := range loads[1:] {
		if l > worst {
			worst = l
		}
	}
	for _, sched := range ServeSchedNames() {
		cells = append(cells, cell{worst, sched, "sticky", false})
	}

	results := grid(opts, "serve", cells, func(o Options, c cell) ServeResult {
		return RunServeCell(o, c.load, c.sched, c.place, c.admit)
	})

	t := report.New(fmt.Sprintf("Serve: open-loop traffic, load factor x scheduler x placement (%d devices)",
		opts.ServeFleetSize()),
		"load", "sched", "place", "adm", "p50", "p95", "p99", "victim p99", "goodput/s", "shed", "qdepth", "util")
	for _, res := range results {
		adm := "on"
		shed := report.Pct(res.ShedRate)
		if !res.Admission {
			// A disabled controller makes no decisions (and counts none),
			// so its shed rate is not a measured zero — mark it absent
			// rather than printing a 0.0% indistinguishable from an
			// enabled controller that never shed.
			adm = "off"
			shed = "-"
		}
		t.AddRow(
			report.F(res.Load, 2),
			res.Sched,
			res.Place,
			adm,
			report.MS(res.P50),
			report.MS(res.P95),
			report.MS(res.P99),
			report.MS(res.VictimP99),
			report.F(res.GoodputPerSec, 0),
			shed,
			fmt.Sprintf("%d", res.QueueDepth),
			report.Pct(res.Utilization),
		)
	}
	t.AddNote("open-loop arrivals: sources never slow down, so load > 1.0 is sustained overload, not a transient")
	t.AddNote("population: 2 Poisson user aggregates, 1 diurnal web stream, 1 deterministic victim probe, 1 MMPP burst adversary")
	t.AddNote("victim p99 under the adversary's bursts is the protection headline: fair queueing holds it while timeslicing trades it for slice latency")
	t.AddNote("adm=off rows: admission disabled (no shed decisions counted; shed shown as -), so the backlog (qdepth) grows without bound under overload")
	return t
}
