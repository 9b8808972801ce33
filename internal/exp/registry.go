package exp

import (
	"strings"
	"sync"

	"repro/internal/report"
	"repro/internal/sim"
)

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options) *report.Table
}

// Registry returns every experiment in paper order. Figures 7 and 10
// re-render the matrices Figures 6 and 9 run; within one Registry the
// sibling takes the matrix over instead of running it again, so a pass
// over the list (RenderAll, neonsim -exp all) runs each matrix once.
func Registry() []Experiment {
	var pairs, nonsat handoff[[][]MixResult]
	fig6 := func(o Options) *report.Table { return fig6Table(pairs.give(o, runFig67(o))) }
	fig7 := func(o Options) *report.Table { return fig7Table(pairs.take(o, runFig67)) }
	fig9 := func(o Options) *report.Table { return fig9Table(nonsat.give(o, runFig910(o))) }
	fig10 := func(o Options) *report.Table { return fig10Table(nonsat.take(o, runFig910)) }
	return []Experiment{
		{"table1", "benchmark characteristics (Table 1)", Table1},
		{"fig2", "request inter-arrival and service CDFs (Figure 2)", Fig2},
		{"sec3", "direct access vs per-request traps (Section 3)", Sec3Throughput},
		{"fig4", "standalone overhead per scheduler (Figure 4)", Fig4},
		{"fig5", "standalone Throttle overhead vs request size (Figure 5)", Fig5},
		{"fig6", "pairwise fairness (Figure 6)", fig6},
		{"fig7", "pairwise concurrency efficiency (Figure 7)", fig7},
		{"fig8", "four concurrent applications (Figure 8)", Fig8},
		{"fig9", "nonsaturating fairness (Figure 9)", fig9},
		{"fig10", "nonsaturating efficiency (Figure 10)", fig10},
		{"protect", "over-long request protection (Sections 3.1, 6.2)", Protection},
		{"sec63", "channel allocation DoS protection (Section 6.3)", Sec63DoS},
		{"ablation-stats", "sampled estimates vs hardware statistics", AblationStats},
		{"ablation-params", "configuration parameter sweeps", AblationParams},
		{"fleet", "multi-device placement policies and fleet-wide fairness", FleetExp},
		{"serve", "open-loop traffic: latency SLOs, admission control, overload", ServeExp},
		{"hetero", "mixed device classes: normalized vs raw DFQ accounting", HeteroExp},
		{"tiers", "weighted shares and SLO service tiers under overload", TiersExp},
		{"scale", "indexed fair queueing at 10^2..10^5 tenants", ScaleExp},
		{"policy", "declarative allocation policies over the tenant x class matrix", PolicyExp},
	}
}

// RenderAll runs every registered experiment and concatenates their
// tables in registry order — the stable portion of `neonsim -exp all`
// output (per-run timing lines excluded). It is deterministic at any
// Options.Parallel width; the golden regression test diffs it against
// testdata/quick.golden so any table drift is an explicit, reviewed
// change.
func RenderAll(opts Options) string {
	var b strings.Builder
	for _, e := range Registry() {
		b.WriteString(e.Run(opts).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// handoff passes one scenario matrix from the figure that runs it to the
// sibling figure that re-renders it. give always stores the matrix it is
// handed; take returns the stored matrix when it was run with the same
// matrix inputs, and runs its own otherwise. Either way take empties the
// handoff, so nothing outlives the pair and a producer run repeatedly
// (a benchmark loop) still runs its matrix every time.
type handoff[T any] struct {
	mu  sync.Mutex
	key matrixKey
	val T
	ok  bool
}

// matrixKey holds the Options fields a closed-loop scenario matrix
// reads; the worker-pool width and the other experiments' overrides do
// not change it.
type matrixKey struct {
	warmup, measure, runLimit sim.Duration
	penalty                   int
	seed                      int64
}

func keyOf(o Options) matrixKey {
	return matrixKey{o.Warmup, o.Measure, o.RunLimit, o.GraphicsPenalty, o.Seed}
}

func (h *handoff[T]) give(o Options, v T) T {
	h.mu.Lock()
	h.key, h.val, h.ok = keyOf(o), v, true
	h.mu.Unlock()
	return v
}

func (h *handoff[T]) take(o Options, run func(Options) T) T {
	h.mu.Lock()
	v, hit := h.val, h.ok && h.key == keyOf(o)
	var zero T
	h.val, h.ok = zero, false
	h.mu.Unlock()
	if hit {
		return v
	}
	return run(o)
}
