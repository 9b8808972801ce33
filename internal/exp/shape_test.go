package exp

// Shape tests: each experiment must reproduce the qualitative result the
// paper reports — who wins, by roughly what factor, where the crossovers
// fall. Absolute values are recorded in EXPERIMENTS.md; these tests pin
// the claims that must not regress.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/neon"
	"repro/internal/workload"
)

func TestAllExperimentsProduceRows(t *testing.T) {
	opts := Quick()
	opts.Warmup = 20 * time.Millisecond
	opts.Measure = 100 * time.Millisecond
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table := e.Run(opts)
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if table.String() == "" {
				t.Fatal("empty rendering")
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := ByID("fig6"); !ok {
		t.Fatal("fig6 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id found")
	}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// Figure 4 shape: engaged Timeslice hurts small-request apps badly and
// large-request apps barely; both disengaged schedulers stay under ~8%.
func TestFig4Shape(t *testing.T) {
	opts := Quick()
	bitonic, _ := workload.ByName("BitonicSort")
	matmul, _ := workload.ByName("MatrixMulDouble")

	aloneB := MeasureAlone(opts, bitonic)[0]
	aloneM := MeasureAlone(opts, matmul)[0]

	tsB := float64(NewRig(TS, opts, bitonic).Measure()[0]) / float64(aloneB)
	tsM := float64(NewRig(TS, opts, matmul).Measure()[0]) / float64(aloneM)
	if tsB < 1.25 {
		t.Errorf("engaged TS on BitonicSort = %.2f, paper shows ~1.38", tsB)
	}
	if tsM > 1.08 {
		t.Errorf("engaged TS on MatrixMulDouble = %.2f, should be low cost", tsM)
	}
	for _, s := range []Sched{DTS, DFQ} {
		sb := float64(NewRig(s, opts, bitonic).Measure()[0]) / float64(aloneB)
		if sb > 1.08 {
			t.Errorf("%s on BitonicSort = %.2f, want <= ~1.08", s, sb)
		}
	}
}

// Figure 5 shape: engaged overhead decreases with request size; the
// disengaged schedulers are flat and small.
func TestFig5Shape(t *testing.T) {
	opts := Quick()
	slow := func(s Sched, us float64) float64 {
		spec := workload.Throttle(time.Duration(us*float64(time.Microsecond)), 0)
		alone := MeasureAlone(opts, spec)[0]
		return float64(NewRig(s, opts, spec).Measure()[0]) / float64(alone)
	}
	if small, large := slow(TS, 19), slow(TS, 1700); small <= large+0.2 {
		t.Errorf("engaged TS: %.2f at 19us vs %.2f at 1.7ms; overhead must shrink with size", small, large)
	}
	for _, s := range []Sched{DTS, DFQ} {
		if v := slow(s, 19); v > 1.10 {
			t.Errorf("%s at 19us = %.2f, want near 1x", s, v)
		}
	}
}

// Figure 6 shape: direct access starves small-request apps against a
// large Throttle; every fair scheduler holds both near 2x.
func TestFig6Shape(t *testing.T) {
	opts := Quick()
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(1700*time.Microsecond, 0)
	alone := MeasureAlone(opts, dct, thr)

	direct := RunMix(Direct, opts, alone, dct, thr)
	if direct.Slowdowns[0] < 5 {
		t.Errorf("direct DCT slowdown = %.1f, want >> 2 (paper >10x)", direct.Slowdowns[0])
	}
	for _, s := range []Sched{TS, DTS, DFQ} {
		res := RunMix(s, opts, alone, dct, thr)
		for i, sd := range res.Slowdowns {
			if sd < 1.5 || sd > 3.2 {
				t.Errorf("%s app %d slowdown = %.2f, want ~2x", s, i, sd)
			}
		}
	}
}

// The glxgears anomaly: under DFQ with the biased device arbitration,
// glxgears suffers clearly more than its Throttle co-runner.
func TestFig6GlxgearsAnomaly(t *testing.T) {
	opts := Quick()
	gears, _ := workload.ByName("glxgears")
	thr := workload.Throttle(19*time.Microsecond, 0)
	alone := MeasureAlone(opts, gears, thr)
	res := RunMix(DFQ, opts, alone, gears, thr)
	if res.Slowdowns[0] <= res.Slowdowns[1]+0.2 {
		t.Errorf("glxgears %.2f vs throttle %.2f: anomaly absent", res.Slowdowns[0], res.Slowdowns[1])
	}
}

// Figure 7 shape: DFQ's efficiency beats engaged Timeslice's.
func TestFig7Shape(t *testing.T) {
	opts := Quick()
	fft, _ := workload.ByName("FFT")
	thr := workload.Throttle(191*time.Microsecond, 0)
	alone := MeasureAlone(opts, fft, thr)
	effTS := RunMix(TS, opts, alone, fft, thr).Efficiency
	effDFQ := RunMix(DFQ, opts, alone, fft, thr).Efficiency
	if effDFQ <= effTS {
		t.Errorf("DFQ efficiency %.2f <= engaged TS %.2f", effDFQ, effTS)
	}
}

// Figure 8 shape: with four tasks, fair schedulers keep everyone within
// a sane band around 4x while direct access spreads wildly.
func TestFig8Shape(t *testing.T) {
	opts := Quick()
	thr := workload.Throttle(425*time.Microsecond, 0)
	bs, _ := workload.ByName("BinarySearch")
	dct, _ := workload.ByName("DCT")
	fft, _ := workload.ByName("FFT")
	specs := []workload.Spec{thr, bs, dct, fft}
	alone := MeasureAlone(opts, specs...)

	spread := func(s []float64) float64 {
		lo, hi := s[0], s[0]
		for _, v := range s {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi / lo
	}
	direct := RunMix(Direct, opts, alone, specs...)
	dts := RunMix(DTS, opts, alone, specs...)
	if spread(direct.Slowdowns) < 2 {
		t.Errorf("direct spread = %.1f, expected gross unfairness", spread(direct.Slowdowns))
	}
	if spread(dts.Slowdowns) > 1.6 {
		t.Errorf("DTS spread = %.1f, want near-uniform slowdowns", spread(dts.Slowdowns))
	}
	for _, sd := range dts.Slowdowns {
		if sd < 3 || sd > 5.5 {
			t.Errorf("DTS slowdown %.2f outside the ~4x band", sd)
		}
	}
}

// Figures 9/10 shape: with an 80%-idle co-runner, timeslice schedulers
// pin DCT at ~2x and waste the device; DFQ lets DCT reclaim idle time at
// near-direct efficiency.
func TestFig910Shape(t *testing.T) {
	opts := Quick()
	byS := map[Sched]MixResult{}
	for i, r := range runMatrix(opts, "nonsat", nonsatRows([]float64{0.8}), AllScheds())[0] {
		byS[AllScheds()[i]] = r
	}
	if dct := byS[DTS].Slowdowns[0]; dct < 1.8 {
		t.Errorf("DTS DCT slowdown = %.2f, want ~2x (non-work-conserving)", dct)
	}
	if dct := byS[DFQ].Slowdowns[0]; dct > 1.6 {
		t.Errorf("DFQ DCT slowdown = %.2f, want well below 2x", dct)
	}
	if thr := byS[DFQ].Slowdowns[1]; thr > 1.4 {
		t.Errorf("DFQ Throttle slowdown = %.2f, paper: it does not suffer", thr)
	}
	lossDFQ := 1 - byS[DFQ].Efficiency/byS[Direct].Efficiency
	lossDTS := 1 - byS[DTS].Efficiency/byS[Direct].Efficiency
	if lossDFQ > 0.2 {
		t.Errorf("DFQ efficiency loss = %.0f%%, paper ~0%%", 100*lossDFQ)
	}
	if lossDTS < lossDFQ {
		t.Errorf("DTS loss %.2f < DFQ loss %.2f; timeslice should waste more", lossDTS, lossDFQ)
	}
}

// Section 3 shape: direct access gains shrink as requests grow.
func TestSec3Shape(t *testing.T) {
	opts := Quick()
	small := throughput(opts, 10*time.Microsecond, false, false) / throughput(opts, 10*time.Microsecond, true, false)
	large := throughput(opts, 100*time.Microsecond, false, false) / throughput(opts, 100*time.Microsecond, true, false)
	if small <= large {
		t.Errorf("gain at 10us (%.2f) should exceed gain at 100us (%.2f)", small, large)
	}
	heavy := throughput(opts, 10*time.Microsecond, false, false) / throughput(opts, 10*time.Microsecond, true, true)
	if heavy < 1.4 {
		t.Errorf("driver-work gain = %.2f, want large (paper 48-170%%)", heavy)
	}
}

// Protection shape: every managed scheduler kills the attacker; direct
// access cannot.
func TestProtectionShape(t *testing.T) {
	opts := Quick()
	table := Protection(opts)
	for _, row := range table.Rows {
		sched, killed := row[0], row[1]
		if sched == "direct" {
			if killed != "false" {
				t.Errorf("direct access somehow killed the attacker")
			}
			continue
		}
		if killed != "true" {
			t.Errorf("%s failed to kill the attacker", sched)
		}
	}
}

// Oracle ablation shape: hardware statistics make the anomaly pairs more
// even than sampled estimates.
func TestAblationStatsShape(t *testing.T) {
	opts := Quick()
	gears, _ := workload.ByName("glxgears")
	thr := workload.Throttle(19*time.Microsecond, 0)
	alone := MeasureAlone(opts, gears, thr)
	dfq := RunMix(DFQ, opts, alone, gears, thr)
	orc := RunMix(Oracle, opts, alone, gears, thr)
	gap := func(r MixResult) float64 {
		hi, lo := r.Slowdowns[0], r.Slowdowns[1]
		if lo > hi {
			hi, lo = lo, hi
		}
		return hi / lo
	}
	if gap(orc) >= gap(dfq) {
		t.Errorf("oracle gap %.2f >= DFQ gap %.2f; statistics should help", gap(orc), gap(dfq))
	}
}

// Determinism: the same options produce byte-identical tables.
func TestExperimentsDeterministic(t *testing.T) {
	opts := Quick()
	opts.Measure = 100 * time.Millisecond
	a := fig9Table(runFig910(opts)).String()
	b := fig9Table(runFig910(opts)).String()
	if a != b {
		t.Fatalf("fig9 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// Different seeds still produce the same *shape* (sanity that results do
// not hinge on one lucky seed).
func TestSeedRobustness(t *testing.T) {
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(425*time.Microsecond, 0)
	for _, seed := range []int64{1, 7, 99} {
		opts := Quick()
		opts.Seed = seed
		alone := MeasureAlone(opts, dct, thr)
		res := RunMix(DTS, opts, alone, dct, thr)
		for i, sd := range res.Slowdowns {
			if sd < 1.6 || sd > 2.6 {
				t.Errorf("seed %d app %d slowdown %.2f", seed, i, sd)
			}
		}
	}
}

// The kill row of the protection table names the run-limit mechanism.
func TestProtectionReasonMentionsRunLimit(t *testing.T) {
	opts := Quick()
	table := Protection(opts)
	found := false
	for _, row := range table.Rows {
		if strings.Contains(row[2], "run limit") {
			found = true
		}
	}
	if !found {
		t.Fatal("no kill reason mentions the run limit")
	}
}

// Channel quota table: policy row must deny the hog and admit the victim.
func TestSec63Shape(t *testing.T) {
	opts := Quick()
	table := Sec63DoS(opts)
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	noPolicy, policy := table.Rows[0], table.Rows[1]
	if noPolicy[1] != "48" || noPolicy[3] != "false" {
		t.Errorf("no-policy row = %v; hog should take all 48 contexts", noPolicy)
	}
	if policy[3] != "true" {
		t.Errorf("policy row = %v; victim should be admitted", policy)
	}
	if !strings.Contains(policy[2], neon.ErrChannelQuota.Error()) {
		t.Errorf("policy denial reason = %q", policy[2])
	}
}
