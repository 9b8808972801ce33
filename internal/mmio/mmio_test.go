package mmio

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/sim"
)

func testPage(e *sim.Engine) (*Page, *[]uint64) {
	var delivered []uint64
	pg := NewPage(cost.Default(), func(v uint64) { delivered = append(delivered, v) }, new(sim.Pool[Fault]))
	return pg, &delivered
}

func TestDirectStoreCostsDirectWrite(t *testing.T) {
	e := sim.NewEngine()
	pg, delivered := testPage(e)
	var took sim.Duration
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		pg.Store(p, 42)
		took = p.Now().Sub(start)
	})
	e.Run()
	if took != cost.Default().DirectWrite {
		t.Fatalf("direct store took %v, want %v", took, cost.Default().DirectWrite)
	}
	if len(*delivered) != 1 || (*delivered)[0] != 42 {
		t.Fatalf("delivered = %v", *delivered)
	}
	if pg.DirectWrites != 1 || pg.Faults != 0 {
		t.Fatalf("counters: direct=%d faults=%d", pg.DirectWrites, pg.Faults)
	}
}

func TestProtectedStoreFaults(t *testing.T) {
	e := sim.NewEngine()
	pg, delivered := testPage(e)
	pg.SetPresent(false)
	handled := false
	pg.SetHandler(func(f *Fault) {
		handled = true
		if f.Value != 7 || f.Page != pg {
			t.Errorf("handler saw page %p value %d, want page %p value 7", f.Page, f.Value, pg)
		}
		if len(*delivered) != 0 {
			t.Error("store reached device before handler delivered it")
		}
		f.Deliver()
	})
	e.Spawn("w", func(p *sim.Proc) { pg.Store(p, 7) })
	e.Run()
	if !handled {
		t.Fatal("handler not invoked")
	}
	if len(*delivered) != 1 {
		t.Fatal("store not single-stepped to device after handler")
	}
	if pg.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", pg.Faults)
	}
}

func TestFaultCostCharged(t *testing.T) {
	e := sim.NewEngine()
	pg, _ := testPage(e)
	pg.SetPresent(false)
	pg.SetHandler(func(f *Fault) { f.Deliver() })
	var took sim.Duration
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		pg.Store(p, 1)
		took = p.Now().Sub(start)
	})
	e.Run()
	if took != cost.Default().FaultTrap {
		t.Fatalf("fault path took %v, want FaultTrap=%v", took, cost.Default().FaultTrap)
	}
}

func TestHandlerMayBlockSubmitter(t *testing.T) {
	e := sim.NewEngine()
	pg, delivered := testPage(e)
	pg.SetPresent(false)
	gate := e.NewGate("allow")
	pg.SetHandler(func(f *Fault) { f.Cont.Wait(gate, f.Deliver) })
	var doneAt sim.Time
	e.Spawn("w", func(p *sim.Proc) {
		pg.Store(p, 9)
		doneAt = p.Now()
	})
	e.After(50*time.Microsecond, gate.Broadcast)
	e.Run()
	if len(*delivered) != 1 {
		t.Fatal("store never delivered")
	}
	if doneAt < sim.Time(50*time.Microsecond) {
		t.Fatalf("store completed at %v, before the scheduler released it", doneAt)
	}
}

func TestReprotectionPersistsAcrossStores(t *testing.T) {
	e := sim.NewEngine()
	pg, _ := testPage(e)
	pg.SetPresent(false)
	pg.SetHandler(func(f *Fault) { f.Deliver() })
	e.Spawn("w", func(p *sim.Proc) {
		pg.Store(p, 1)
		pg.Store(p, 2)
		pg.Store(p, 3)
	})
	e.Run()
	if pg.Faults != 3 {
		t.Fatalf("Faults = %d; page must stay protected between stores", pg.Faults)
	}
}

func TestUnprotectedAfterDisengage(t *testing.T) {
	e := sim.NewEngine()
	pg, _ := testPage(e)
	pg.SetPresent(false)
	pg.SetHandler(func(f *Fault) { f.Deliver() })
	e.Spawn("w", func(p *sim.Proc) {
		pg.Store(p, 1)
		pg.SetPresent(true) // disengage
		pg.Store(p, 2)
		pg.Store(p, 3)
	})
	e.Run()
	if pg.Faults != 1 || pg.DirectWrites != 2 {
		t.Fatalf("faults=%d direct=%d, want 1/2", pg.Faults, pg.DirectWrites)
	}
}

func TestNilHandlerStillDelivers(t *testing.T) {
	e := sim.NewEngine()
	pg, delivered := testPage(e)
	pg.SetPresent(false)
	e.Spawn("w", func(p *sim.Proc) { pg.Store(p, 5) })
	e.Run()
	if len(*delivered) != 1 {
		t.Fatal("store with nil handler lost")
	}
}

// TestStoreOnDirectAndStopped: a continuation's direct store paces the
// DirectWrite on the continuation and delivers in the step that
// continues it, at the instant a process's store would have woken;
// stopping the continuation before that step abandons the store.
func TestStoreOnDirectAndStopped(t *testing.T) {
	e := sim.NewEngine()
	pg, delivered := testPage(e)
	c := e.NewCont()
	var at sim.Time
	pg.StoreOn(c, 4, func() {
		at = e.Now()
		if len(*delivered) != 1 {
			t.Error("the step ran before the store was delivered")
		}
	})
	e.Run()
	if at != sim.Time(cost.Default().DirectWrite) || len(*delivered) != 1 || pg.DirectWrites != 1 {
		t.Fatalf("step at %v, delivered %v, direct writes %d", at, *delivered, pg.DirectWrites)
	}

	pg.StoreOn(c, 5, func() { t.Error("a stopped store's step ran") })
	c.Stop()
	e.Run()
	if len(*delivered) != 1 {
		t.Fatalf("a stopped store reached the device: %v", *delivered)
	}
}

// TestRecordsSharedAcrossPages: pages made on one pool share its store
// records, so a page created to replace another (a channel
// recreated on a reattach) stores without allocating once the pool is
// warm.
func TestRecordsSharedAcrossPages(t *testing.T) {
	e := sim.NewEngine()
	var recs sim.Pool[Fault]
	sink := func(uint64) {}
	c := e.NewCont()
	then := func() {}
	pg := NewPage(cost.Default(), sink, &recs)
	pg.StoreOn(c, 1, then)
	e.Run()
	fresh := func() {
		pg := NewPage(cost.Default(), sink, &recs)
		pg.StoreOn(c, 2, then)
		e.Run()
	}
	// A fresh page costs its own allocations (page, deferred-delivery
	// closure), but its store takes a pooled record.
	perPage := testing.AllocsPerRun(20, func() {
		NewPage(cost.Default(), sink, &recs)
	})
	if allocs := testing.AllocsPerRun(20, fresh); allocs > perPage {
		t.Errorf("a store on a fresh page allocated %.0f times beyond the page's own %.0f", allocs-perPage, perPage)
	}
}
