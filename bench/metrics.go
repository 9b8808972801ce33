package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/exp"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root declares the same names, units and directions; the
// package test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced run's metrics: each is the median over the
// run's passes, and every pass is one sample.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"allocs_per_pass", "allocs", "lower"},
}

// perLayer are the traced run's metrics, in report order.
var perLayer = func() []metricDef {
	ms := func(n string) metricDef { return metricDef{n, "ms", "lower"} }
	ns := func(n string) metricDef { return metricDef{n, "ns", "lower"} }
	us := func(n string) metricDef { return metricDef{n, "us", "lower"} }
	allocs := func(n string) metricDef { return metricDef{n, "allocs", "lower"} }
	count := func(n, better string) metricDef { return metricDef{n, "count", better} }
	ratio := func(n, better string) metricDef { return metricDef{n, "ratio", better} }

	defs := []metricDef{
		// Probe passes: one traced pass of each workload.
		ms("pairs.build_ms"), ms("pairs.warmup_ms"), ms("pairs.measure_ms"),
		count("pairs.simreq", "higher"), allocs("pairs.allocs_per_simreq"),
		count("neon.faults", "lower"), count("core.dfq_cycles", "lower"), count("core.dfq_denials", "lower"),

		ms("openloop.build_ms"), ms("openloop.warmup_ms"), ms("openloop.measure_ms"), ms("openloop.collect_ms"),
		count("openloop.simreq", "higher"), allocs("openloop.allocs_per_simreq"),
		ratio("traffic.complete_frac", "higher"), ratio("traffic.shed_frac", "lower"),
		ratio("traffic.batch_collapse", "higher"), ms("traffic.cold_ms"), count("fleet.qdepth_end", "lower"),

		ms("storm.build_ms"), ms("storm.warmup_ms"), ms("storm.measure_ms"),
		count("storm.simreq", "higher"), allocs("storm.allocs_per_simreq"),
		count("neon.reattaches", "lower"), count("neon.evictions", "lower"), count("neon.attach_waits", "lower"),
		count("neon.hwctx_peak", "lower"), ratio("neon.reattach_frac", "lower"),
	}
	for _, e := range exp.Registry() {
		defs = append(defs, ms("exp."+e.ID+"_ms"))
	}
	defs = append(defs,
		count("exp.scenarios", "lower"), ratio("exp.pool_busy_frac", "higher"),

		// The traced workload's own pass against its untraced twin.
		ratio("trace_overhead_frac", "lower"), count("go.gc_cycles", "lower"), ms("go.gc_pause_ms"),

		// Ladder rungs (ladder.go).
		ns("sim.event_ns"), allocs("sim.event_allocs"), ns("sim.handoff_ns"),
		ns("gpu.request_ns"), allocs("gpu.request_allocs"),
		ns("userlib.async_ns"), allocs("userlib.async_allocs"),
		ns("userlib.sync_ns"), allocs("userlib.sync_allocs"),
		ns("core.ts_ns"), allocs("core.ts_allocs"),
		ns("core.dts_ns"), allocs("core.dts_allocs"),
		ns("core.dfq_ns"), allocs("core.dfq_allocs"),
		ns("attr.neon_userlib_ns"), ns("attr.core_ts_ns"), ns("attr.core_dts_ns"), ns("attr.core_dfq_ns"),

		ns("traffic.dispatch_ns"), allocs("traffic.dispatch_allocs"),
		ns("traffic.batch_ns"), allocs("traffic.batch_allocs"),
		ns("attr.traffic_ns"), ns("traffic.admit_ns"),
		ns("fleet.place_ns.sticky2"), ns("fleet.place_ns.fastestfit8"), ns("fleet.board_ns"),
		ns("metrics.digest_add_ns"), ns("metrics.digest_merge_ns"), ns("metrics.digest_quantile_ns"),

		us("traffic.new_us_per_stream.1e3"), us("traffic.new_us_per_stream.1e4"),
		us("neon.open_virtual_us"), ns("neon.reattach_ns"),
		metricDef{"storm.heap_kb_per_tenant", "KB", "lower"}, ratio("storm.procs_per_tenant", "lower"),

		ns("core.ledger_ns.1e2"), ns("core.ledger_ns.1e5"),
		us("policy.solve_us.maxmin.1e3"), us("policy.solve_us.maxmin.1e5"),
		us("policy.solve_us.hier.1e5"), us("policy.solve_us.cost.1e5"),
		us("fleet.alloc_round_us"),
	)
	return defs
}()

// attributions are the attr.* metrics: a rung minus the rung beneath it,
// which is that layer's host cost per simulated request.
var attributions = []struct{ name, rung, beneath string }{
	{"attr.neon_userlib_ns", "userlib.async_ns", "gpu.request_ns"},
	{"attr.core_ts_ns", "core.ts_ns", "userlib.async_ns"},
	{"attr.core_dts_ns", "core.dts_ns", "userlib.async_ns"},
	{"attr.core_dfq_ns", "core.dfq_ns", "userlib.async_ns"},
	{"attr.traffic_ns", "traffic.dispatch_ns", "userlib.async_ns"},
}

// summary is one metric's distribution over a run's passes.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of xs, computed like
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so a
// run's spread reads the same here as in any external check of it.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	if n == 1 {
		return summary{s[0], s[0], s[0], 1}
	}
	at := func(p float64) float64 {
		// Exclusive method: position p*(n+1), 1-based, clamped to the data.
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: at(0.25), Q3: at(0.75), N: n}
}

// metricLine formats one metric for the human-readable report.
func metricLine(name, unit string, v float64) string {
	return fmt.Sprintf("%-34s %14.6g %s", name, v, unit)
}
