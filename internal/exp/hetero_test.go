package exp

import (
	"testing"
)

// TestHeteroSerialParallelIdentical: the hetero table must be
// byte-identical at any worker-pool width.
func TestHeteroSerialParallelIdentical(t *testing.T) {
	serial := Quick()
	serial.Parallel = 1
	parallel := Quick()
	parallel.Parallel = 4
	a := HeteroExp(serial).String()
	b := HeteroExp(parallel).String()
	if a != b {
		t.Fatalf("hetero output differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestHeteroShape pins the experiment's qualitative claims at quick
// scale: normalized accounting plus class-aware placement holds every
// tenant's normalized service within the single-device fairness bound
// on a mixed fleet, while the raw-device-time ablation leaves
// slow-device tenants outside it — and the distortion worsens with the
// class spread.
func TestHeteroShape(t *testing.T) {
	opts := Quick()
	mix := HeteroMix{"k20+consumer", []string{"k20", "consumer"}}
	wide := HeteroMix{"k20+consumer+nextgen", []string{"k20", "consumer", "nextgen"}}

	for _, place := range []string{"fastest-fit", "class-sticky"} {
		norm := RunHeteroCell(opts, mix, "norm", place)
		raw := RunHeteroCell(opts, mix, "raw", place)
		if !norm.InBound {
			t.Errorf("%s/norm: worst/mean %.2f outside the %.2f fairness bound",
				place, norm.WorstShare, HeteroFairBound)
		}
		if raw.InBound {
			t.Errorf("%s/raw: worst/mean %.2f inside the bound; raw charges should starve slow-device tenants",
				place, raw.WorstShare)
		}
		if norm.WorstShare <= raw.WorstShare {
			t.Errorf("%s: normalization did not improve the worst share: norm %.2f vs raw %.2f",
				place, norm.WorstShare, raw.WorstShare)
		}
	}

	// The wider the class spread, the harsher raw accounting treats the
	// slowest tenants.
	rawPair := RunHeteroCell(opts, mix, "raw", "fastest-fit")
	rawWide := RunHeteroCell(opts, wide, "raw", "fastest-fit")
	if rawWide.WorstShare >= rawPair.WorstShare {
		t.Errorf("three-class raw worst share %.2f not below two-class %.2f",
			rawWide.WorstShare, rawPair.WorstShare)
	}

	// Class-aware placement must beat class-blind sticky on normalized
	// fairness under normalized accounting: sticky pins tenants to their
	// first device, so shares split by class speed.
	sticky := RunHeteroCell(opts, mix, "norm", "sticky")
	ff := RunHeteroCell(opts, mix, "norm", "fastest-fit")
	if ff.Jain <= sticky.Jain {
		t.Errorf("fastest-fit Jain %.3f not above class-blind sticky %.3f", ff.Jain, sticky.Jain)
	}

	// Sanity on the normalized-throughput unit: a k20+consumer pair can
	// complete at most 1.5 reference-device-seconds per second.
	for _, res := range []HeteroResult{sticky, ff} {
		if res.WorkPerSec <= 0 || res.WorkPerSec > 1.5 {
			t.Errorf("%s work/s = %.2f, want in (0, 1.5]", res.Place, res.WorkPerSec)
		}
	}
}

// TestHeteroClassesKnob: Options.Classes must collapse the mix sweep to
// the custom composition (the cmd/neonsim -classes flag).
func TestHeteroClassesKnob(t *testing.T) {
	o := Quick()
	o.Classes = []string{"k20", "nextgen"}
	mixes := o.HeteroMixes()
	if len(mixes) != 1 || mixes[0].Name != "k20+nextgen" {
		t.Fatalf("HeteroMixes with override = %+v, want single k20+nextgen", mixes)
	}
	tbl := HeteroExp(o)
	// 1 mix x 2 accountings x 3 placements.
	if got, want := len(tbl.Rows), 6; got != want {
		t.Fatalf("with -classes: %d rows, want %d", got, want)
	}
	for _, row := range tbl.Rows {
		if row[0] != "k20+nextgen" {
			t.Fatalf("unexpected mix column %q", row[0])
		}
	}
	if len(Quick().HeteroMixes()) != len(DefaultHeteroMixes()) {
		t.Fatal("default mix sweep lost")
	}
}
