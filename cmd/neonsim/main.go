// Command neonsim regenerates the tables and figures of "Disengaged
// Scheduling for Fair, Protected Access to Fast Computational
// Accelerators" (ASPLOS 2014) on the simulated GPU stack.
//
// Usage:
//
//	neonsim -list
//	neonsim -exp fig6                  # one experiment, paper-scale windows
//	neonsim -exp all -quick            # everything, reduced windows
//	neonsim -exp fig9 -seed 7          # different deterministic seed
//	neonsim -exp all -parallel 4       # bound the scenario worker pool
//	neonsim -exp all -json BENCH.json  # machine-readable timings
//	neonsim -exp serve -load 0.8,1.0,1.2  # custom load-factor sweep
//	neonsim -exp hetero -classes k20,consumer  # custom fleet class mix
//	neonsim -exp tiers -weights 8,2,1     # custom premium:standard:best-effort contract
//	neonsim -exp tiers -tiers premium,premium,standard  # custom admission tiers per role
//	neonsim -exp tiers -policy maxmin     # drive the fleet through an allocation policy
//	neonsim -exp scale -deep              # append the 10^6-tenant ledger and 10^5-tenant storm rows
//
// Scenarios within each experiment run on a worker pool (-parallel,
// default NumCPU); the emitted tables are byte-identical at any width.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/workload"
)

// benchRecord is one experiment's machine-readable timing, for tracking
// the performance trajectory across PRs (BENCH_*.json).
type benchRecord struct {
	Experiment string `json:"experiment"`
	// WallSeconds is elapsed wall-clock for the whole experiment.
	WallSeconds float64 `json:"wall_seconds"`
	// Scenarios is the number of jobs the harness executed.
	Scenarios int `json:"scenarios"`
	// ScenarioSeconds is the summed per-job wall time; divided by
	// WallSeconds it approximates the achieved parallel speedup.
	ScenarioSeconds float64 `json:"scenario_seconds"`
	// Throughput is scenarios per wall-clock second.
	Throughput float64 `json:"scenarios_per_second"`
	Rows       int     `json:"rows"`
	Parallel   int     `json:"parallel"`
	Quick      bool    `json:"quick"`
	Seed       int64   `json:"seed"`
}

// parseList parses a comma-separated list flag, one item at a time;
// the empty string means the flag was not given. A positive want is the
// exact number of items the flag takes.
func parseList[T any](name, s string, want int, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -%s value %q: %v", name, part, err)
		}
		out = append(out, v)
	}
	if want > 0 && len(out) != want {
		return nil, fmt.Errorf("-%s needs exactly %d values, got %d", name, want, len(out))
	}
	return out, nil
}

// positiveFloat parses a positive factor such as a load or a weight.
func positiveFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) {
		return 0, errors.New("want a positive number")
	}
	return v, nil
}

// positiveInt parses a positive count.
func positiveInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return 0, errors.New("want a positive integer")
	}
	return v, nil
}

// className accepts a known cost.Class name.
func className(s string) (string, error) {
	_, err := cost.ClassByName(s)
	return s, err
}

func main() {
	var (
		which    = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick    = flag.Bool("quick", false, "use reduced measurement windows")
		list     = flag.Bool("list", false, "list experiments and exit")
		seed     = flag.Int64("seed", 1, "deterministic simulation seed")
		parallel = flag.Int("parallel", runtime.NumCPU(), "scenario worker pool width (1 = serial)")
		jsonOut  = flag.String("json", "", "write per-experiment wall-clock and throughput JSON to this file")
		loads    = flag.String("load", "", "comma-separated load factors for the serve and tiers experiments (defaults 0.6,0.9,1.1,1.4 / 1.2,1.8)")
		classes  = flag.String("classes", "", "comma-separated device classes (k20,consumer,nextgen) for the hetero and serve fleets")
		weights  = flag.String("weights", "", "premium,standard,best-effort fair-share weights for the tiers experiment (e.g. 4,1,1)")
		tiers    = flag.String("tiers", "", "admission tiers for the tiers experiment's three roles (e.g. premium,standard,best-effort)")
		tenants  = flag.String("tenants", "", "comma-separated tenant counts for the scale experiment (default 100,1000,10000,100000)")
		polName  = flag.String("policy", "", "allocation policy driving the tiers experiment's fleets (static, maxmin, hier[:org=w,...], cost); empty runs no allocator")
		deep     = flag.Bool("deep", false, "append the scale experiment's deep rows (10^6-tenant ledger, 10^5-tenant full-stack storm; minutes, not seconds)")
	)
	flag.Parse()

	if *quick && *deep {
		fmt.Fprintf(os.Stderr, "neonsim: -deep and -quick are mutually exclusive; the deep scale rows exist precisely to run past the quick windows\n")
		os.Exit(2)
	}
	if _, err := policy.Parse(*polName); err != nil {
		fmt.Fprintf(os.Stderr, "neonsim: bad -policy value: %v\n", err)
		os.Exit(2)
	}

	opts := exp.Full()
	if *quick {
		opts = exp.Quick()
	}
	opts.Seed = *seed
	opts.Parallel = *parallel
	opts.Policy = *polName
	opts.DeepScale = *deep
	var errs [5]error
	opts.Loads, errs[0] = parseList("load", *loads, 0, positiveFloat)
	opts.Classes, errs[1] = parseList("classes", *classes, 0, className)
	opts.Weights, errs[2] = parseList("weights", *weights, 3, positiveFloat)
	opts.Tiers, errs[3] = parseList("tiers", *tiers, 3, workload.ParseTier)
	opts.Tenants, errs[4] = parseList("tenants", *tenants, 0, positiveInt)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "neonsim: %v\n", err)
			os.Exit(2)
		}
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Desc)
		}
		return
	}

	var records []benchRecord
	run := func(e exp.Experiment) {
		exp.ResetStats()
		start := time.Now()
		table := e.Run(opts)
		wall := time.Since(start)
		jobs, jobWall := exp.Stats()
		fmt.Println(table.String())
		fmt.Printf("  [%s: %d scenarios on %d workers in %.1fs wall time]\n\n",
			e.ID, jobs, opts.Workers(), wall.Seconds())
		records = append(records, benchRecord{
			Experiment:      e.ID,
			WallSeconds:     wall.Seconds(),
			Scenarios:       jobs,
			ScenarioSeconds: jobWall.Seconds(),
			Throughput:      float64(jobs) / wall.Seconds(),
			Rows:            len(table.Rows),
			Parallel:        opts.Workers(),
			Quick:           *quick,
			Seed:            *seed,
		})
	}

	if *which == "all" {
		for _, e := range exp.Registry() {
			run(e)
		}
	} else {
		e, ok := exp.ByID(*which)
		if !ok {
			fmt.Fprintf(os.Stderr, "neonsim: unknown experiment %q (try -list)\n", *which)
			os.Exit(2)
		}
		run(e)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "neonsim: encoding bench records: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "neonsim: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("  [bench records written to %s]\n", *jsonOut)
	}
}
