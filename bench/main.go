// Command bench is the repository's benchmark. It runs one workload of
// the simulator, checks that the simulated outputs are correct, and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name and unit, then one JSON result line:
//
//	bash bench/run.sh -workload pairs -seed 1 -seconds 20
//	bash bench/run.sh -workload storm -trace 1
//	bash bench/run.sh compare -old A.jsonl -new B.jsonl
//
// The workloads are suite, pairs, openloop and storm (README.md). Run
// it from the repository root; run.sh builds it first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	// The benchmark host has two CPUs; pinning the width keeps runs on
	// larger machines comparable.
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		wname    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed     = fs.Int64("seed", 1, "seed of the workload's inputs (2 is the held-out seed)")
		seconds  = fs.Float64("seconds", 20, "how long the untraced run measures, in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		traceOut = fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace_<workload>.json)")
		recordTo = fs.String("record", "", "append this run's record to the file, for compare")
		child    = fs.String("child", "", "run one unit (JSON) and report it; used by the benchmark itself")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, stdout)
	}
	w, ok := workloadByName(*wname)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (want %s)\n", *wname, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive\n")
		return 2
	}
	golden := filepath.Join("internal", "exp", "testdata", "quick.golden")
	if _, err := os.Stat(golden); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	run := childRunner(exe)

	var o *outcome
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace_"+w.name+".json")
		}
		if o, err = traced(run, w, *seed, false, golden, path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", path)
	} else {
		o = measure(run, w, *seed, *seconds, false, golden)
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, o); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := o.report(bufio.NewWriter(stdout)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// childMain runs one unit and prints its report as one JSON line.
func childMain(arg string, stdout io.Writer) int {
	var u unit
	if err := json.Unmarshal([]byte(arg), &u); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -child unit: %v\n", err)
		return 2
	}
	rep, err := runUnit(u)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func appendRecord(path string, o *outcome) error {
	line, err := json.Marshal(record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		SimDigest: o.digest, Passes: o.passes, Result: o.result(),
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("recording: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("recording: %w", err)
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
