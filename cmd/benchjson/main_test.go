package main

import (
	"regexp"
	"strings"
	"testing"
)

// allocs is one benchmark with a single allocs/op sample.
func allocs(name string, v float64) Bench {
	return Bench{Name: name, Runs: 1, AllocsPerOp: &Stat{Median: v, Min: v, Max: v}}
}

func point(benches ...Bench) *Result {
	return &Result{Schema: "neonsim-bench/v1", Benchmarks: benches}
}

// TestCheck covers the gate's verdicts: within the threshold passes, a
// larger rise fails, a zero baseline gates absolutely, a gated
// benchmark only the new result has is skipped, and one the new result
// lacks fails. Benchmarks outside the gate are never compared.
func TestCheck(t *testing.T) {
	gate := regexp.MustCompile(`BenchmarkA$|BenchmarkB$`)
	for _, tc := range []struct {
		name     string
		old, new *Result
		checked  int
		failed   bool
		line     string // a line the output must hold
	}{
		{"pass", point(allocs("BenchmarkA", 100)), point(allocs("BenchmarkA", 110)),
			1, false, "ok   BenchmarkA: allocs/op 100 -> 110"},
		{"regression", point(allocs("BenchmarkA", 100)), point(allocs("BenchmarkA", 116)),
			1, true, "FAIL BenchmarkA: allocs/op 100 -> 116"},
		{"zero-baseline-holds", point(allocs("BenchmarkA", 0)), point(allocs("BenchmarkA", 0)),
			1, false, "ok   BenchmarkA: allocs/op 0 -> 0 (n/a"},
		{"zero-baseline-breaks", point(allocs("BenchmarkA", 0)), point(allocs("BenchmarkA", 1)),
			1, true, "FAIL BenchmarkA: allocs/op 0 -> 1 (n/a"},
		{"new-only", point(allocs("BenchmarkA", 100)), point(allocs("BenchmarkA", 100), allocs("BenchmarkB", 7)),
			1, false, "SKIP BenchmarkB: not in baseline"},
		{"missing", point(allocs("BenchmarkA", 100), allocs("BenchmarkB", 7)), point(allocs("BenchmarkA", 100)),
			1, true, "FAIL BenchmarkB: in the baseline, missing from the new result"},
		{"ungated", point(allocs("BenchmarkA", 100), allocs("BenchmarkC", 1)), point(allocs("BenchmarkA", 100), allocs("BenchmarkC", 99)),
			1, false, "ok   BenchmarkA"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			checked, failed := check(&out, tc.old, tc.new, gate, "allocs/op", 0.15)
			if checked != tc.checked || failed != tc.failed {
				t.Errorf("checked %d, failed %v; want %d, %v\n%s", checked, failed, tc.checked, tc.failed, out.String())
			}
			if !strings.Contains(out.String(), tc.line) {
				t.Errorf("output lacks %q:\n%s", tc.line, out.String())
			}
			if strings.Contains(out.String(), "BenchmarkC") {
				t.Errorf("an ungated benchmark was compared:\n%s", out.String())
			}
		})
	}
}
