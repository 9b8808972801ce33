// Package metrics provides the measurement helpers used throughout the
// evaluation: log2-binned histograms with CDF extraction (Figure 2),
// online means, and the paper's slowdown and concurrency-efficiency
// definitions (Section 5.3).
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Mean is an online arithmetic mean.
type Mean struct {
	n   int64
	sum float64
}

// Add folds in one observation.
func (m *Mean) Add(x float64) { m.n++; m.sum += x }

// AddDuration folds in a duration observation, in nanoseconds.
func (m *Mean) AddDuration(d time.Duration) { m.Add(float64(d)) }

// N returns the observation count.
func (m *Mean) N() int64 { return m.n }

// Value returns the mean, or 0 with no observations.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Duration returns the mean as a duration.
func (m *Mean) Duration() time.Duration { return time.Duration(m.Value()) }

// Log2Hist bins durations by floor(log2(microseconds)), matching the
// paper's Figure 2 axes (bins 0..17 cover 1 µs to ~0.26 s; sub-µs
// observations land in bin 0).
type Log2Hist struct {
	Bins  [18]int64
	Total int64
}

// Add records one duration.
func (h *Log2Hist) Add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	bin := 0
	if us >= 1 {
		bin = int(math.Log2(us))
	}
	if bin >= len(h.Bins) {
		bin = len(h.Bins) - 1
	}
	h.Bins[bin]++
	h.Total++
}

// CDF returns cumulative percentages per bin (0..100).
func (h *Log2Hist) CDF() [18]float64 {
	var out [18]float64
	if h.Total == 0 {
		return out
	}
	var cum int64
	for i, c := range h.Bins {
		cum += c
		out[i] = 100 * float64(cum) / float64(h.Total)
	}
	return out
}

// Slowdown is the paper's per-application degradation metric: the ratio
// of the application's per-round time in the evaluated scenario to its
// per-round time running alone with direct access.
func Slowdown(concurrent, alone time.Duration) float64 {
	if alone <= 0 {
		return 0
	}
	return float64(concurrent) / float64(alone)
}

// Efficiency is the paper's concurrency efficiency: given each
// application's round time alone (t_i) and in the concurrent run (tc_i),
// it sums the resource shares t_i/tc_i. Below 1.0 resources were lost;
// above 1.0 the applications overlapped productively.
func Efficiency(alone, concurrent []time.Duration) float64 {
	if len(alone) != len(concurrent) {
		panic(fmt.Sprintf("metrics: mismatched lengths %d vs %d", len(alone), len(concurrent)))
	}
	sum := 0.0
	for i := range alone {
		if concurrent[i] > 0 {
			sum += float64(alone[i]) / float64(concurrent[i])
		}
	}
	return sum
}

// JainIndex is Jain's fairness index over per-task normalized service:
// 1.0 is perfectly fair, 1/n maximally unfair. Used by property tests.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
