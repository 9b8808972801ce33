package exp

// The parallel harness: every experiment driver enumerates its scenario
// grid as a slice of typed cells, and grid runs them on a bounded worker
// pool. Each cell builds its own sim.Engine and receives a
// deterministically forked RNG seed keyed by (experiment ID, cell
// index), so the assembled tables are byte-identical at any parallelism
// — including -parallel 1.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// grid runs one experiment's cells on a pool of opts.Workers()
// goroutines (width 1 is a pool of one) and returns their results in
// cell order. Cell i's Options carry Seed = sim.StreamSeed(opts.Seed,
// exp, i), so outputs depend only on the cell's identity, never on
// worker interleaving. A panicking cell stops the pool from starting
// more, and the panic is re-raised on the caller's goroutine with the
// experiment, the index, the cell and the panicking goroutine's stack.
func grid[C, R any](opts Options, exp string, cells []C, run func(Options, C) R) []R {
	out := make([]R, len(cells))
	var (
		next     atomic.Int64
		panicked atomic.Value
		wg       sync.WaitGroup
	)
	cell := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				panicked.CompareAndSwap(nil, fmt.Sprintf("exp: %s[%d] %+v: %v\n%s",
					exp, i, cells[i], p, debug.Stack()))
			}
		}()
		o := opts
		o.Seed = sim.StreamSeed(opts.Seed, exp, i)
		start := time.Now()
		out[i] = run(o, cells[i])
		poolStats.jobs.Add(1)
		poolStats.wallNS.Add(int64(time.Since(start)))
	}
	for w := 0; w < min(opts.Workers(), len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}

// Workers resolves the effective pool width for these Options.
func (o Options) Workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.NumCPU()
}

// specKey identifies a spec for baseline caching: Table 1 applications by
// name, parameterized Throttles by their knobs as well.
func specKey(s workload.Spec) string {
	return fmt.Sprintf("%s|%v|%v|%.3f", s.Name, s.CPU, s.GPUTime(), s.SleepRatio)
}

// Baselines is a cache of standalone direct-access round times, the
// denominators of every slowdown the paper reports.
type Baselines struct {
	m map[string]sim.Duration
}

// MeasureBaselines measures each distinct spec standalone exactly once,
// on the grid under the "<exp>:alone" stream, and returns the cache.
func MeasureBaselines(exp string, opts Options, specs ...workload.Spec) *Baselines {
	b := &Baselines{m: map[string]sim.Duration{}}
	var (
		keys     []string
		distinct []workload.Spec
	)
	for _, s := range specs {
		if k := specKey(s); !slices.Contains(keys, k) {
			keys = append(keys, k)
			distinct = append(distinct, s)
		}
	}
	rounds := grid(opts, exp+":alone", distinct, func(o Options, s workload.Spec) sim.Duration {
		return NewRig(Direct, o, s).Measure()[0]
	})
	for i, k := range keys {
		b.m[k] = rounds[i]
	}
	return b
}

// Of returns the cached standalone round time for the spec.
func (b *Baselines) Of(s workload.Spec) sim.Duration {
	d, ok := b.m[specKey(s)]
	if !ok {
		panic(fmt.Sprintf("exp: no baseline measured for %s", s.Name))
	}
	return d
}

// For returns the cached baselines for the specs, in order — the same
// slice MeasureAlone would have produced.
func (b *Baselines) For(specs ...workload.Spec) []sim.Duration {
	out := make([]sim.Duration, len(specs))
	for i, s := range specs {
		out[i] = b.Of(s)
	}
	return out
}

// poolStats accumulates scenario counts for the currently running
// experiment; cmd/neonsim resets it per experiment to report throughput.
var poolStats struct {
	jobs   atomic.Int64
	wallNS atomic.Int64
}

// ResetStats clears the per-experiment scenario counters.
func ResetStats() {
	poolStats.jobs.Store(0)
	poolStats.wallNS.Store(0)
}

// Stats returns the scenarios executed and their summed per-cell wall
// time since the last ResetStats. Summed cell time divided by elapsed
// wall time approximates the achieved parallel speedup.
func Stats() (jobs int, jobWall time.Duration) {
	return int(poolStats.jobs.Load()), time.Duration(poolStats.wallNS.Load())
}
