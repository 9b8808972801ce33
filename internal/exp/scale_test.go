package exp

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestScaleLeadBoundInvariant is the property half of the scale
// experiment: under randomized open-loop engagement storms at 10^4 and
// 10^5 tenants, the indexed DFQ path (per-device ledgers reconciling
// through the fleet board) must keep every tenant's fleet-wide lead
// within the weighted bound freeRun + devices x window / minWeight. It
// extends internal/traffic's TestWeightedDFQLeadBoundInvariant — which
// proves the same bound on the real scheduler at device-channel
// populations — to tenant counts the simulated GPU cannot host.
func TestScaleLeadBoundInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10^4..10^5-tenant storms (~4s)")
	}
	for _, tenants := range []int{10_000, 100_000} {
		reps := 3
		if tenants >= 100_000 {
			reps = 1
		}
		for rep := 0; rep < reps; rep++ {
			t.Run(fmt.Sprintf("tenants%d/rep%d", tenants, rep), func(t *testing.T) {
				o := Quick()
				o.Seed = sim.StreamSeed(1, "scale-lead-bound", tenants+rep)
				res := RunScaleCell(o, tenants, DFQ)
				if res.Requests == 0 {
					t.Fatal("storm charged no requests; nothing was tested")
				}
				if !res.InBound {
					t.Errorf("fleet-wide lead bound violated: ratio %.3f at %d tenants",
						res.BoundRatio, tenants)
				}
				if res.BoundRatio < 0 || math.IsNaN(res.BoundRatio) {
					t.Errorf("nonsensical bound ratio %v", res.BoundRatio)
				}
			})
		}
	}
}

// TestScaleAllocsFlat pins the sub-linearity acceptance bar directly:
// deterministic structural allocations per request must stay flat
// (within ±10%) from 10^2 to 10^5 tenants. A ledger or board step that
// scaled per-cycle work with the idle population would drag this ratio
// up with tenant count.
func TestScaleAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 10^5-tenant cell (~1s)")
	}
	o := Quick()
	o.Seed = sim.StreamSeed(1, "scale", 0)
	small := RunScaleCell(o, 100, DFQ)
	large := RunScaleCell(o, 100_000, DFQ)
	if small.AllocsPerReq <= 0 || large.AllocsPerReq <= 0 {
		t.Fatalf("allocs/request not measured: %v, %v", small.AllocsPerReq, large.AllocsPerReq)
	}
	if ratio := large.AllocsPerReq / small.AllocsPerReq; ratio > 1.1 || ratio < 0.9 {
		t.Errorf("allocs/request drifted %.0f%% from 10^2 (%.3f) to 10^5 (%.3f) tenants; want flat within 10%%",
			100*(ratio-1), small.AllocsPerReq, large.AllocsPerReq)
	}
}

// TestScaleCellDeterminism reruns one cell on the same forked seed and
// requires identical results — the property that lets the scale table
// live in the byte-exact golden.
func TestScaleCellDeterminism(t *testing.T) {
	o := Quick()
	o.Seed = sim.StreamSeed(7, "scale", 3)
	for _, sched := range ScaleScheds() {
		a := RunScaleCell(o, 1000, sched)
		b := RunScaleCell(o, 1000, sched)
		if a != b {
			t.Errorf("%s cell not deterministic:\n%+v\n%+v", sched, a, b)
		}
	}
}

// TestStormTenantLiveBytes pins what a hosted tenant costs in live heap:
// the 10^4-tenant DFQ storm, built exactly as RunScaleFullCell builds it
// and run through warmup and measurement, holds at most 2.4 KB (2,400
// bytes) per tenant after a GC. Capped slab chunks, latency digests that
// keep their few sojourns inline and a stream record without a copy of
// the tenant's spec keep it there: uncapped doubling chunks, a bucket
// window per digest and a spec copy per stream hold about 3.8 KB.
func TestStormTenantLiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the live heap")
	}
	const tenants, limit = 10_000, 2400
	o := Quick()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	srv := serve(o, scaleFullConfig(o, tenants, DFQ))
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perTenant := (float64(ms.HeapAlloc) - float64(before)) / tenants
	var completed int64
	for i := 0; i < tenants; i++ {
		completed += srv.Stats(i).Completed
	}
	runtime.KeepAlive(srv)
	if completed == 0 {
		t.Fatal("the storm completed nothing; nothing was measured")
	}
	t.Logf("%.0f live bytes per tenant (%.1f MB for %d tenants)", perTenant, perTenant*tenants/1e6, tenants)
	if perTenant > limit {
		t.Errorf("a storm tenant holds %.0f live bytes, want at most %d", perTenant, limit)
	}
}
