// Command benchjson records and checks the repository's benchmark
// trajectory (PERFORMANCE.md).
//
// `benchjson run` executes `go test -bench` in one process and renders
// the output as one trajectory point: a JSON object
// carrying both the raw benchmark lines (benchstat-consumable verbatim)
// and parsed per-benchmark statistics (median/min/max ns/op, B/op,
// allocs/op, custom metrics).
// The committed BENCH_*.json files are produced this way; `-baseline`
// embeds a previously recorded point as the "before" section so a perf
// PR carries its own before/after evidence.
//
// `benchjson check` compares two results — each either a BENCH_*.json
// file or raw `go test -bench` text — and fails (exit 1) when any
// gated benchmark's median regresses by more than the threshold, or
// when a gated benchmark of the baseline is missing from the new
// result. CI
// uses it twice: an allocs/op check against the committed trajectory
// point (allocation counts are machine-independent), and an ns/op
// check of HEAD against the baseline commit re-run on the same runner
// (wall-clock is only comparable within one machine; see
// PERFORMANCE.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one trajectory point: the schema of BENCH_*.json.
type Result struct {
	Schema      string  `json:"schema"` // "neonsim-bench/v1"
	GeneratedAt string  `json:"generated_at,omitempty"`
	GoVersion   string  `json:"go_version,omitempty"`
	Bench       string  `json:"bench"`     // -bench regex the point was recorded with
	Benchtime   string  `json:"benchtime"` // -benchtime per run
	Count       int     `json:"count"`     // -count runs per benchmark
	Benchmarks  []Bench `json:"benchmarks"`
	// Raw holds the benchmark output lines verbatim (including the
	// goos/goarch/pkg/cpu header), so `jq -r '.raw[]' point.json`
	// reconstructs a file benchstat accepts.
	Raw []string `json:"raw"`
	// Before optionally embeds the pre-change point of a perf PR.
	Before *Result `json:"before,omitempty"`
}

// Bench is the parsed statistics of one benchmark across its -count runs.
type Bench struct {
	Name        string             `json:"name"` // GOMAXPROCS suffix stripped
	Runs        int                `json:"runs"`
	NsPerOp     Stat               `json:"ns_per_op"`
	BytesPerOp  *Stat              `json:"bytes_per_op,omitempty"`
	AllocsPerOp *Stat              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // medians of custom units
}

// Stat summarizes one unit's samples across runs.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchjson run   [-bench regex] [-benchtime d] [-count n] [-pkg path] [-baseline point.json]
  benchjson check -old <point.json|bench.txt> -new <point.json|bench.txt|-> [-gate regex] [-threshold 0.15] [-unit ns/op|B/op|allocs/op]`)
	os.Exit(2)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", ".", "benchmarks to run (go test -bench regex)")
	benchtime := fs.String("benchtime", "0.3s", "time per benchmark run")
	count := fs.Int("count", 3, "runs per benchmark")
	pkg := fs.String("pkg", ".", "package holding the bench suite")
	baseline := fs.String("baseline", "", "embed this prior point as the before section")
	fs.Parse(args)

	// No timeout: go test's default of 10 minutes covers the whole
	// selection, which a long -benchtime or a high -count outlasts.
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench, "-timeout", "0",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fatalf("go test -bench %s: %v", *bench, err)
	}
	res := parse(string(out))
	if len(res.Benchmarks) == 0 {
		fatalf("-bench %q matches no benchmark in %s", *bench, *pkg)
	}
	res.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	res.GoVersion = runtime.Version()
	res.Bench, res.Benchtime, res.Count = *bench, *benchtime, *count
	if *baseline != "" {
		before, err := loadPoint(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		res.Before = before
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fatalf("encode: %v", err)
	}
}

func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	oldPath := fs.String("old", "", "baseline: BENCH_*.json or raw bench text")
	newPath := fs.String("new", "", "candidate: BENCH_*.json, raw bench text, or - for stdin")
	gate := fs.String("gate", "BenchmarkSimEngine$|BenchmarkRequestPath$", "benchmarks the threshold applies to")
	threshold := fs.Float64("threshold", 0.15, "max allowed fractional regression of the median")
	unit := fs.String("unit", "ns/op", "unit to compare (ns/op, B/op or allocs/op)")
	fs.Parse(args)
	if *oldPath == "" || *newPath == "" {
		usage()
	}
	oldRes, err := loadPoint(*oldPath)
	if err != nil {
		fatalf("old: %v", err)
	}
	newRes, err := loadPoint(*newPath)
	if err != nil {
		fatalf("new: %v", err)
	}
	re, err := regexp.Compile(*gate)
	if err != nil {
		fatalf("gate: %v", err)
	}
	checked, failed := check(os.Stdout, oldRes, newRes, re, *unit, *threshold)
	if checked == 0 {
		fatalf("gate %q matched no benchmark present in both results", *gate)
	}
	if failed {
		os.Exit(1)
	}
}

// check compares, on one unit, every benchmark of the baseline that the
// gate matches with the same benchmark of the new result, and writes one
// verdict line each to w. A gated baseline benchmark missing from the
// new result fails, so a renamed or deleted benchmark cannot pass the
// gate; a gated benchmark only the new result has is skipped. It
// returns how many benchmarks were compared and whether any failed.
func check(w io.Writer, oldRes, newRes *Result, gate *regexp.Regexp, unit string, threshold float64) (checked int, failed bool) {
	for i := range oldRes.Benchmarks {
		ob := &oldRes.Benchmarks[i]
		if !gate.MatchString(ob.Name) {
			continue
		}
		nb := findBench(newRes, ob.Name)
		if nb == nil {
			fmt.Fprintf(w, "FAIL %s: in the baseline, missing from the new result\n", ob.Name)
			failed = true
			continue
		}
		oldV, okOld := statFor(ob, unit)
		newV, okNew := statFor(nb, unit)
		if !okOld || !okNew {
			fmt.Fprintf(w, "SKIP %s: no %s samples\n", ob.Name, unit)
			continue
		}
		checked++
		// A zero baseline (e.g. 0 allocs/op) gates absolutely: any
		// nonzero candidate is a regression.
		ok := newV <= oldV*(1+threshold)
		if oldV == 0 {
			ok = newV == 0
		}
		delta := "n/a"
		if oldV != 0 {
			delta = fmt.Sprintf("%+.1f%%", (newV/oldV-1)*100)
		}
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(w, "%s %s: %s %.6g -> %.6g (%s, threshold %.0f%%)\n",
			verdict, ob.Name, unit, oldV, newV, delta, threshold*100)
	}
	for _, nb := range newRes.Benchmarks {
		if gate.MatchString(nb.Name) && findBench(oldRes, nb.Name) == nil {
			fmt.Fprintf(w, "SKIP %s: not in baseline\n", nb.Name)
		}
	}
	return checked, failed
}

func findBench(r *Result, name string) *Bench {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

func statFor(b *Bench, unit string) (float64, bool) {
	switch unit {
	case "ns/op":
		return b.NsPerOp.Median, b.Runs > 0
	case "allocs/op":
		if b.AllocsPerOp == nil {
			return 0, false
		}
		return b.AllocsPerOp.Median, true
	case "B/op":
		if b.BytesPerOp == nil {
			return 0, false
		}
		return b.BytesPerOp.Median, true
	default:
		v, ok := b.Metrics[unit]
		return v, ok
	}
}

// loadPoint reads a result from a BENCH_*.json trajectory point or,
// when the file does not parse as one, from raw `go test -bench` text.
// "-" reads raw text from stdin.
func loadPoint(path string) (*Result, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = readAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if r.Schema != "neonsim-bench/v1" {
			return nil, fmt.Errorf("%s: unknown schema %q", path, r.Schema)
		}
		return &r, nil
	}
	r := parse(string(data))
	return r, nil
}

func readAll(f *os.File) ([]byte, error) {
	var buf []byte
	tmp := make([]byte, 64<<10)
	for {
		n, err := f.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			if err.Error() == "EOF" {
				return buf, nil
			}
			return buf, err
		}
	}
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
var maxprocs = regexp.MustCompile(`-\d+$`)

// parse turns `go test -bench` output into a Result. Every line is kept
// verbatim in Raw; Benchmark lines additionally feed the per-name
// sample sets from which medians are computed.
func parse(out string) *Result {
	res := &Result{Schema: "neonsim-bench/v1"}
	type samples struct {
		order   int
		byUnit  map[string][]float64
		metrics map[string][]float64
	}
	byName := map[string]*samples{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || line == "PASS" || strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "ok\t") {
			continue
		}
		res.Raw = append(res.Raw, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := maxprocs.ReplaceAllString(m[1], "")
		s := byName[name]
		if s == nil {
			s = &samples{order: len(byName), byUnit: map[string][]float64{}, metrics: map[string][]float64{}}
			byName[name] = s
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			switch unit {
			case "ns/op", "B/op", "allocs/op":
				s.byUnit[unit] = append(s.byUnit[unit], v)
			default:
				s.metrics[unit] = append(s.metrics[unit], v)
			}
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].order < byName[names[j]].order })
	for _, n := range names {
		s := byName[n]
		b := Bench{Name: n, Runs: len(s.byUnit["ns/op"]), NsPerOp: summarize(s.byUnit["ns/op"])}
		if v, ok := s.byUnit["B/op"]; ok {
			st := summarize(v)
			b.BytesPerOp = &st
		}
		if v, ok := s.byUnit["allocs/op"]; ok {
			st := summarize(v)
			b.AllocsPerOp = &st
		}
		for unit, v := range s.metrics {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = summarize(v).Median
		}
		res.Benchmarks = append(res.Benchmarks, b)
	}
	return res
}

func summarize(v []float64) Stat {
	if len(v) == 0 {
		return Stat{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	st := Stat{Min: s[0], Max: s[len(s)-1]}
	mid := len(s) / 2
	if len(s)%2 == 1 {
		st.Median = s[mid]
	} else {
		st.Median = (s[mid-1] + s[mid]) / 2
	}
	return st
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
