package main

// compare reads two sets of recorded runs (-record files: one JSON
// record per line), and judges every (workload, end-to-end metric) pair
// against the bound BENCHMARK.json fixes for it.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	oldPath := fs.String("old", "", "records of the parent commit")
	newPath := fs.String("new", "", "records of the change")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "bench compare: -old and -new are required")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: reading %s: %v\n", *specPath, err)
		return 2
	}
	oldRecs, err := readRecords(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	newRecs, err := readRecords(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	bad := compareSets(out, spec, oldRecs, newRecs)
	out.Flush()
	if bad {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: record without a result", path)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict judges one metric. worse is the new median's relative change
// in the metric's bad direction and spread the parent's q1–q3 distance,
// both as shares of the parent's median.
func verdict(worse, spread, bound float64, everyRunBetter bool) string {
	switch {
	case worse > bound && worse > spread:
		return "regressed"
	case worse < 0 && -worse > spread && everyRunBetter:
		return "improved"
	case spread > bound || math.Abs(worse) < spread:
		return "unresolved"
	}
	return "unchanged"
}

// compareSets prints one row per (workload, metric) and reports whether
// anything regressed, a failure rate rose, or a simulation digest
// changed. Only untraced records take part.
func compareSets(out io.Writer, spec benchmarkSpec, oldRecs, newRecs []record) bool {
	type key struct {
		workload string
		seed     int64
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	oldW, newW := byWorkload(oldRecs), byWorkload(newRecs)
	var names []string
	for w := range oldW {
		if _, ok := newW[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	bad := false
	fmt.Fprintf(out, "%-9s %-16s %12s %21s %12s %8s  %s\n", "workload", "metric", "old median", "old q1..q3", "new median", "change", "verdict")
	for _, w := range names {
		olds, news := oldW[w], newW[w]
		for _, m := range spec.EndToEnd {
			values := func(recs []record) []float64 {
				var xs []float64
				for _, r := range recs {
					if v, ok := r.Result.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			ov, nv := values(olds), values(news)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oldS, newS := summarize(ov), summarize(nv)
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * (newS.Median - oldS.Median) / oldS.Median
			spread := math.Abs(oldS.Q3-oldS.Q1) / oldS.Median
			everyBetter := true
			for _, a := range ov {
				for _, b := range nv {
					if sign*(b-a) >= 0 {
						everyBetter = false
					}
				}
			}
			v := verdict(worse, spread, m.Bound, everyBetter)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(out, "%-9s %-16s %12.6g %10.6g..%-10.6g %12.6g %+7.1f%%  %s\n",
				w, m.Name, oldS.Median, oldS.Q1, oldS.Q3, newS.Median, 100*(newS.Median-oldS.Median)/oldS.Median, v)
		}
		failFrac := func(recs []record) float64 {
			var failed, attempted int
			for _, r := range recs {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
			}
			return float64(failed) / float64(max(attempted, 1))
		}
		if of, nf := failFrac(olds), failFrac(news); nf > of {
			bad = true
			fmt.Fprintf(out, "%-9s fail_frac rose from %.4g to %.4g\n", w, of, nf)
		}
	}

	digests := map[key]string{}
	for _, r := range oldRecs {
		digests[key{r.Workload, r.Seed}] = r.SimDigest
	}
	for _, r := range newRecs {
		if d, ok := digests[key{r.Workload, r.Seed}]; ok && d != r.SimDigest {
			bad = true
			fmt.Fprintf(out, "%-9s sim_digest at seed %d changed: %s -> %s\n", r.Workload, r.Seed, d, r.SimDigest)
		}
	}
	return bad
}
