package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/internal/exp"
	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark's child
// processes, so the tests below run units out of process exactly as
// the benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	os.Exit(m.Run())
}

var golden = filepath.Join("..", "internal", "exp", "testdata", "quick.golden")

func TestServeCellMatchesExp(t *testing.T) {
	cases := []struct {
		load  float64
		sched string
		admit bool
	}{{0.9, "dfq", true}, {1.4, "ts", false}}
	if !testing.Short() {
		cases = append(cases, struct {
			load  float64
			sched string
			admit bool
		}{1.4, "dts", true})
	}
	for _, c := range cases {
		o := exp.Quick()
		o.Seed = 7
		got, _, err := runServe(&meter{}, o, c.load, c.sched, c.admit, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := exp.RunServeCell(o, c.load, c.sched, "sticky", c.admit); !reflect.DeepEqual(got, want) {
			t.Errorf("load %.1f %s admit=%v:\n got  %+v\n want %+v", c.load, c.sched, c.admit, got, want)
		}
	}
}

func TestStormCellMatchesExp(t *testing.T) {
	for _, s := range exp.ScaleScheds() {
		o := exp.Quick()
		o.Seed = 3
		got, err := runStorm(&meter{}, o, 1_000, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := exp.RunScaleFullCell(o, 1_000, s); got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", s, got, want)
		}
	}
}

func TestPairCellMatchesRigMeasure(t *testing.T) {
	o := exp.Quick()
	o.Seed = 5
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(191_000, 0)
	got, err := runPair(&meter{}, o, exp.DFQ, dct, thr)
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.NewRig(exp.DFQ, o, dct, thr).Measure(); !reflect.DeepEqual(got, want) {
		t.Errorf("rounds %v, Rig.Measure %v", got, want)
	}
}

// TestWorkloadSmoke runs each workload's pass twice in child processes:
// no cell may fail, and both passes must simulate the same thing.
func TestWorkloadSmoke(t *testing.T) {
	run := childRunner(os.Args[0])
	for _, w := range workloads {
		if w.name == "suite" {
			if testing.Short() {
				continue
			}
			var c checker
			p := runPass(run, w, 1, false, true)
			c.cells(p, p)
			c.suiteReference(run, p, 1, golden)
			if c.failed != 0 {
				t.Errorf("suite: %v", c.problems)
			}
			continue
		}
		a := runPass(run, w, 2, false, true)
		b := runPass(run, w, 2, false, true)
		var c checker
		c.cells(a, a)
		c.cells(b, a)
		if c.failed != 0 || c.attempted != 2*len(w.cells(2, true)) {
			t.Errorf("%s: %d of %d cells failed: %v", w.name, c.failed, c.attempted, c.problems)
		}
		if simDigest(a) != simDigest(b) {
			t.Errorf("%s: sim_digest %s then %s", w.name, simDigest(a), simDigest(b))
		}
		if a.work <= 0 || a.wall <= 0 || a.setup <= 0 {
			t.Errorf("%s: pass measured work %d, wall %v, setup %v", w.name, a.work, a.wall, a.setup)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared is BENCHMARK.json as far as the metric and workload lists go.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	if !reflect.DeepEqual(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", d.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", d.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestTracedRun checks that a traced run emits exactly the declared
// per-layer metrics and that its trace file is balanced Chrome JSON.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's probe pass, the suite included")
	}
	w, _ := workloadByName("openloop")
	path := filepath.Join(t.TempDir(), "trace.json")
	o, err := traced(childRunner(os.Args[0]), w, 1, true, golden, path)
	if err != nil {
		t.Fatal(err)
	}
	if o.check.failed != 0 {
		t.Errorf("traced run failed: %v", o.check.problems)
	}
	for _, d := range perLayer {
		if _, ok := o.metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if len(o.metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d declared", len(o.metrics), len(perLayer))
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	byPid := map[int][]traceEvent{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			byPid[e.Pid] = append(byPid[e.Pid], e)
		}
	}
	if len(byPid) == 0 {
		t.Fatal("trace holds no spans")
	}
	for pid, evs := range byPid {
		// Spans on one track must nest: each starts after its
		// predecessor ends or ends inside the enclosing span.
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var open []float64
		for _, e := range evs {
			for len(open) > 0 && e.Ts >= open[len(open)-1] {
				open = open[:len(open)-1]
			}
			end := e.Ts + e.Dur
			if len(open) > 0 && end > open[len(open)-1]+1e-3 {
				t.Fatalf("pid %d: span %s [%v, %v] crosses its parent's end %v", pid, e.Name, e.Ts, end, open[len(open)-1])
			}
			open = append(open, end)
		}
	}
}

func TestSummarizeMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		better               bool
		want                 string
	}{
		{0.20, 0.02, 0.10, false, "regressed"},
		{0.20, 0.30, 0.10, false, "unresolved"},
		{-0.05, 0.01, 0.10, true, "improved"},
		{-0.05, 0.01, 0.10, false, "unchanged"},
		{0.01, 0.03, 0.10, false, "unresolved"},
		{0, 0, 0.02, false, "unchanged"},
		{0.05, 0.01, 0.10, false, "unchanged"},
	} {
		if got := verdict(c.worse, c.spread, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", c.worse, c.spread, c.bound, c.better, got, c.want)
		}
	}
}
