package exp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Results must come back in cell order with seeds forked from (base
// seed, exp, index), identically at every pool width.
func TestGridOrderAndForkedSeeds(t *testing.T) {
	opts := Quick()
	cells := make([]int, 20)
	for i := range cells {
		cells[i] = i
	}
	for _, parallel := range []int{1, 3, 8} {
		opts.Parallel = parallel
		res := grid(opts, "pooltest", cells, func(o Options, c int) [2]int64 { return [2]int64{int64(c), o.Seed} })
		if len(res) != 20 {
			t.Fatalf("parallel=%d: %d results, want 20", parallel, len(res))
		}
		for i, r := range res {
			if r[0] != int64(i) {
				t.Fatalf("parallel=%d: result %d carries cell %d", parallel, i, r[0])
			}
			if want := sim.StreamSeed(opts.Seed, "pooltest", i); r[1] != want {
				t.Errorf("parallel=%d cell %d: seed %d, want %d", parallel, i, r[1], want)
			}
		}
	}
}

// The pool must never run more cells at once than its width.
func TestGridBoundsWorkers(t *testing.T) {
	opts := Quick()
	opts.Parallel = 3
	var inFlight, peak atomic.Int64
	grid(opts, "bound", make([]struct{}, 12), func(Options, struct{}) bool {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return true
	})
	if got := peak.Load(); got > 3 {
		t.Fatalf("observed %d concurrent cells, pool width is 3", got)
	}
}

// A panicking cell must surface on the caller's goroutine naming the
// experiment, the index and the cell, not crash a worker — at every
// pool width.
func TestGridPropagatesPanic(t *testing.T) {
	type cell struct{ Label string }
	cells := make([]cell, 8)
	cells[5].Label = "exploding scenario"
	for _, parallel := range []int{1, 4} {
		opts := Quick()
		opts.Parallel = parallel
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("parallel=%d: panic did not propagate", parallel)
				}
				msg := fmt.Sprint(p)
				for _, want := range []string{"pooltest[5]", "Label:exploding scenario", "boom", "goroutine"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("parallel=%d: panic message %q lacks %q", parallel, msg, want)
					}
				}
			}()
			grid(opts, "pooltest", cells, func(_ Options, c cell) int {
				if c.Label != "" {
					panic("boom")
				}
				return 0
			})
		}()
	}
}

// Baselines must measure each distinct spec once and key parameterized
// Throttles by their knobs.
func TestBaselinesDedupAndLookup(t *testing.T) {
	opts := poolTestOpts()
	dct, _ := workload.ByName("DCT")
	thrA := workload.Throttle(100*time.Microsecond, 0)
	thrB := workload.Throttle(400*time.Microsecond, 0)
	b := MeasureBaselines("dedup", opts, dct, thrA, thrB, thrA, dct)
	if len(b.m) != 3 {
		t.Fatalf("cached %d baselines, want 3 distinct", len(b.m))
	}
	if b.Of(thrA) == b.Of(thrB) {
		t.Error("different Throttle sizes share a baseline")
	}
	got := b.For(dct, thrA)
	if got[0] != b.Of(dct) || got[1] != b.Of(thrA) {
		t.Error("For does not match Of")
	}
}

func TestBaselinesMissingSpecPanics(t *testing.T) {
	opts := poolTestOpts()
	dct, _ := workload.ByName("DCT")
	fft, _ := workload.ByName("FFT")
	b := MeasureBaselines("missing", opts, dct)
	defer func() {
		if recover() == nil {
			t.Fatal("Of on an unmeasured spec did not panic")
		}
	}()
	b.Of(fft)
}

// poolTestOpts shrinks windows so harness-level tests stay fast.
func poolTestOpts() Options {
	o := Quick()
	o.Warmup = 20 * time.Millisecond
	o.Measure = 100 * time.Millisecond
	return o
}

// The acceptance bar for the harness: serial and parallel runs of the
// same experiment emit byte-identical tables for the same seed.
func TestFig6SerialParallelIdentical(t *testing.T) {
	opts := poolTestOpts()
	opts.Parallel = 1
	serial := fig6Table(runFig67(opts)).String()
	opts.Parallel = 4
	parallel := fig6Table(runFig67(opts)).String()
	if serial != parallel {
		t.Fatalf("fig6 serial vs parallel diverged:\n%s\nvs\n%s", serial, parallel)
	}
}

// Same bar for a multi-stage driver with shared baselines and custom rigs.
func TestAblationParamsSerialParallelIdentical(t *testing.T) {
	opts := poolTestOpts()
	opts.Parallel = 1
	serial := AblationParams(opts).String()
	opts.Parallel = 4
	parallel := AblationParams(opts).String()
	if serial != parallel {
		t.Fatalf("ablation-params serial vs parallel diverged:\n%s\nvs\n%s", serial, parallel)
	}
}

// Stats must reflect the cells of the last experiment after a reset.
func TestPoolStats(t *testing.T) {
	ResetStats()
	opts := Quick()
	opts.Parallel = 2
	grid(opts, "pooltest", make([]int, 6), func(o Options, _ int) int64 { return o.Seed })
	jobs, _ := Stats()
	if jobs != 6 {
		t.Fatalf("Stats jobs = %d, want 6", jobs)
	}
	ResetStats()
	if jobs, _ := Stats(); jobs != 0 {
		t.Fatalf("Stats jobs = %d after reset, want 0", jobs)
	}
}

// One Registry runs each shared matrix once: Figure 7 renders Figure 6's
// matrix and Figure 10 renders Figure 9's without running a job, and
// each sibling run alone still renders the same table.
func TestRegistrySharesSiblingMatrices(t *testing.T) {
	opts := poolTestOpts()
	opts.Parallel = 2
	for _, pair := range [][2]string{{"fig6", "fig7"}, {"fig9", "fig10"}} {
		reg := map[string]Experiment{}
		for _, e := range Registry() {
			reg[e.ID] = e
		}
		reg[pair[0]].Run(opts)
		ResetStats()
		shared := reg[pair[1]].Run(opts).String()
		if jobs, _ := Stats(); jobs != 0 {
			t.Errorf("%s after %s ran %d jobs, want 0", pair[1], pair[0], jobs)
		}
		alone, _ := ByID(pair[1])
		ResetStats()
		if got := alone.Run(opts).String(); got != shared {
			t.Errorf("%s alone differs from %s after %s:\n%s\nvs\n%s", pair[1], pair[1], pair[0], got, shared)
		}
		if jobs, _ := Stats(); jobs == 0 {
			t.Errorf("%s alone ran no jobs", pair[1])
		}
	}
}

// One Registry pass runs a fixed number of scenarios per experiment —
// the count neonsim prints and the benchmark reports as exp.scenarios.
// Figures 7 and 10 run none: they render the matrices Figures 6 and 9
// hand over.
func TestRegistryScenarioCounts(t *testing.T) {
	want := []struct {
		id   string
		jobs int
	}{
		{"table1", 18}, {"fig2", 3}, {"sec3", 15}, {"fig4", 72}, {"fig5", 24},
		{"fig6", 72}, {"fig7", 0}, {"fig8", 8}, {"fig9", 21}, {"fig10", 0},
		{"protect", 5}, {"sec63", 2}, {"ablation-stats", 11}, {"ablation-params", 20},
		{"fleet", 18}, {"serve", 27}, {"hetero", 18}, {"tiers", 8}, {"scale", 12}, {"policy", 9},
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	opts := poolTestOpts()
	total := 0
	for i, e := range reg {
		ResetStats()
		e.Run(opts)
		jobs, _ := Stats()
		total += jobs
		if e.ID != want[i].id || jobs != want[i].jobs {
			t.Errorf("experiment %d: %s ran %d scenarios, want %s with %d", i, e.ID, jobs, want[i].id, want[i].jobs)
		}
	}
	if total != 363 {
		t.Errorf("one pass ran %d scenarios, want 363", total)
	}
}

// A handoff is keyed on the matrix inputs only, and is taken once.
func TestHandoffKeyedOnMatrixInputs(t *testing.T) {
	var h handoff[int]
	runs := 0
	run := func(Options) int { runs++; return 7 }
	o := Quick()
	h.give(o, 1)
	other := o
	other.Parallel = 8
	other.Tenants = []int{5}
	if got := h.take(other, run); got != 1 || runs != 0 {
		t.Fatalf("take with only non-matrix fields changed = %d (%d runs), want the given 1", got, runs)
	}
	if got := h.take(o, run); got != 7 || runs != 1 {
		t.Fatalf("second take = %d (%d runs), want a fresh run", got, runs)
	}
	h.give(o, 1)
	reseeded := o
	reseeded.Seed++
	if got := h.take(reseeded, run); got != 7 || runs != 2 {
		t.Fatalf("take with another seed = %d (%d runs), want a fresh run", got, runs)
	}
}

// Experiments of one Registry may run on several goroutines at once; the
// handoff they share must stay race-free (run under -race).
func TestHandoffConcurrent(t *testing.T) {
	var h handoff[int]
	o := Quick()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.give(o, 1)
				if got := h.take(o, func(Options) int { return 1 }); got != 1 {
					t.Errorf("take = %d, want 1", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
