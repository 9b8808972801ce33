package exp

import (
	"testing"
	"time"
)

// TestSec3CellsAllocateOnlySetup bounds what one Section 3 cell
// allocates: its stack's setup, not anything per request. A trap cell
// releases each completed request before staging the next, so the
// device's pool serves every later one, and the direct cell's resubmit
// step is bound once. A 20 µs cell completes 10,000 to 20,000 requests
// in the quick window, so a request, gate or closure per request shows
// up as thousands of allocations: a trap cell that never released its
// requests cost about 50,800, and a direct cell with a closure per
// resubmission about 19,900.
func TestSec3CellsAllocateOnlySetup(t *testing.T) {
	const size, limit = 20 * time.Microsecond, 200
	o := Quick()
	for _, c := range []struct {
		name       string
		trap, work bool
	}{{"direct", false, false}, {"trap", true, false}, {"trap+driver work", true, true}} {
		var tput float64
		allocs := testing.AllocsPerRun(1, func() { tput = throughput(o, size, c.trap, c.work) })
		if tput == 0 {
			t.Fatalf("%s: the cell completed no request", c.name)
		}
		t.Logf("%s: %.0f allocations, %.0f requests/s", c.name, allocs, tput)
		if allocs > limit {
			t.Errorf("%s: one cell allocated %.0f times, want at most %d (setup only)", c.name, allocs, limit)
		}
	}
}
