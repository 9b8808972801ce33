package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.N() != 0 {
		t.Fatal("zero mean not zero")
	}
	m.Add(2)
	m.Add(4)
	m.Add(6)
	if m.Value() != 4 || m.N() != 3 {
		t.Fatalf("mean = %v n = %d", m.Value(), m.N())
	}
}

func TestMeanDuration(t *testing.T) {
	var m Mean
	m.AddDuration(10 * time.Microsecond)
	m.AddDuration(30 * time.Microsecond)
	if m.Duration() != 20*time.Microsecond {
		t.Fatalf("Duration = %v", m.Duration())
	}
}

func TestLog2HistBinning(t *testing.T) {
	var h Log2Hist
	h.Add(500 * time.Nanosecond) // sub-us -> bin 0
	h.Add(1 * time.Microsecond)  // bin 0
	h.Add(3 * time.Microsecond)  // bin 1
	h.Add(1 * time.Millisecond)  // log2(1000)=9.96 -> bin 9
	h.Add(time.Hour)             // clamps to last bin
	if h.Bins[0] != 2 || h.Bins[1] != 1 || h.Bins[9] != 1 || h.Bins[17] != 1 {
		t.Fatalf("bins = %v", h.Bins)
	}
	if h.Total != 5 {
		t.Fatalf("total = %d", h.Total)
	}
}

func TestLog2HistCDF(t *testing.T) {
	var h Log2Hist
	for i := 0; i < 4; i++ {
		h.Add(2 * time.Microsecond) // bin 1
	}
	h.Add(100 * time.Microsecond) // bin 6
	cdf := h.CDF()
	if cdf[0] != 0 || cdf[1] != 80 || cdf[5] != 80 || cdf[6] != 100 || cdf[17] != 100 {
		t.Fatalf("cdf = %v", cdf)
	}
}

func TestEmptyCDFAllZero(t *testing.T) {
	var h Log2Hist
	for _, v := range h.CDF() {
		if v != 0 {
			t.Fatal("empty CDF nonzero")
		}
	}
}

func TestSlowdown(t *testing.T) {
	if Slowdown(200, 100) != 2 {
		t.Fatal("basic slowdown")
	}
	if Slowdown(100, 0) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestEfficiencyDefinition(t *testing.T) {
	alone := []time.Duration{100, 100}
	conc := []time.Duration{200, 200}
	if got := Efficiency(alone, conc); got != 1.0 {
		t.Fatalf("perfect split efficiency = %v", got)
	}
	conc = []time.Duration{400, 400}
	if got := Efficiency(alone, conc); got != 0.5 {
		t.Fatalf("half efficiency = %v", got)
	}
	// Overlap can exceed 1.0.
	conc = []time.Duration{120, 120}
	if got := Efficiency(alone, conc); got <= 1.0 {
		t.Fatalf("synergy efficiency = %v", got)
	}
}

func TestEfficiencyMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	Efficiency([]time.Duration{1}, []time.Duration{1, 2})
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("equal shares index = %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("max unfair index = %v", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate cases")
	}
}

// TestPropertyCDFMonotone: CDFs are nondecreasing and end at 100.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(us []uint16) bool {
		if len(us) == 0 {
			return true
		}
		var h Log2Hist
		for _, u := range us {
			h.Add(time.Duration(u) * time.Microsecond)
		}
		cdf := h.CDF()
		prev := 0.0
		for _, v := range cdf {
			if v < prev {
				return false
			}
			prev = v
		}
		return math.Abs(cdf[17]-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyJainBounds: Jain's index lies in [1/n, 1] for positive
// inputs.
func TestPropertyJainBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var pos []float64
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e100 {
				pos = append(pos, x)
			}
		}
		if len(pos) == 0 {
			return true
		}
		j := JainIndex(pos)
		return j >= 1/float64(len(pos))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
