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

// seedJobs returns jobs that report the forked seed they received.
func seedJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = NewJob("pooltest", i, fmt.Sprintf("job %d", i),
			func(o Options) any { return o.Seed })
	}
	return jobs
}

// Results must come back in enumeration order with seeds forked from
// (base seed, exp, index), identically at every pool width.
func TestRunJobsOrderAndForkedSeeds(t *testing.T) {
	opts := Quick()
	for _, parallel := range []int{1, 3, 8} {
		opts.Parallel = parallel
		res := RunJobs(opts, seedJobs(20))
		if len(res) != 20 {
			t.Fatalf("parallel=%d: %d results, want 20", parallel, len(res))
		}
		for i, r := range res {
			if r.Job.Index != i {
				t.Fatalf("parallel=%d: result %d carries job index %d", parallel, i, r.Job.Index)
			}
			want := sim.StreamSeed(opts.Seed, "pooltest", i)
			if got := r.Value.(int64); got != want {
				t.Errorf("parallel=%d job %d: seed %d, want %d", parallel, i, got, want)
			}
		}
	}
}

// The pool must never run more goroutines than requested.
func TestRunJobsBoundsWorkers(t *testing.T) {
	opts := Quick()
	opts.Parallel = 3
	var inFlight, peak atomic.Int64
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = NewJob("bound", i, "", func(Options) any {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return nil
		})
	}
	RunJobs(opts, jobs)
	if got := peak.Load(); got > 3 {
		t.Fatalf("observed %d concurrent jobs, pool width is 3", got)
	}
}

// A panicking job must surface on the caller's goroutine with the job's
// identity attached, not crash a worker.
func TestRunJobsPropagatesPanic(t *testing.T) {
	opts := Quick()
	opts.Parallel = 4
	jobs := seedJobs(8)
	jobs[5] = NewJob("pooltest", 5, "exploding scenario", func(Options) any {
		panic("boom")
	})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic did not propagate")
		}
		msg := fmt.Sprint(p)
		if !strings.Contains(msg, "exploding scenario") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic message %q lacks job identity", msg)
		}
	}()
	RunJobs(opts, jobs)
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
	serial := Fig6(opts).String()
	opts.Parallel = 4
	parallel := Fig6(opts).String()
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

// Stats must reflect the jobs of the last experiment after a reset.
func TestPoolStats(t *testing.T) {
	ResetStats()
	opts := Quick()
	opts.Parallel = 2
	RunJobs(opts, seedJobs(6))
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
