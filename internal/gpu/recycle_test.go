package gpu

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mmio"
)

// TestContextsLiveSetAfterChurn drives 10^4 create/release cycles on an
// 8-context device, with kills and owner kills interleaved, against a
// reference list of the live contexts. After every operation Contexts
// must return exactly the live set in creation order, ContextCount its
// size, and KillOwner must have killed exactly the owner's contexts.
// Released contexts come back from the pool; killed ones never do.
func TestContextsLiveSetAfterChurn(t *testing.T) {
	e, _ := testDev(t)
	cfg := DefaultConfig()
	cfg.MaxContexts = 8
	d := New(e, cfg)
	rng := rand.New(rand.NewSource(1))

	var live []*Context // the reference: creation order
	killed := map[*Context]bool{}
	objects := map[*Context]bool{}
	lastID := -1
	check := func(op string, i int) {
		t.Helper()
		got := d.Contexts()
		if len(got) != len(live) || d.ContextCount() != len(live) {
			t.Fatalf("op %d (%s): %d contexts (count %d), want %d", i, op, len(got), d.ContextCount(), len(live))
		}
		for j := range live {
			if got[j] != live[j] {
				t.Fatalf("op %d (%s): context %d is ID %d, want ID %d", i, op, j, got[j].ID, live[j].ID)
			}
		}
	}
	drop := func(c *Context) {
		for j, x := range live {
			if x == c {
				live = append(live[:j], live[j+1:]...)
				return
			}
		}
		t.Fatalf("context %d is not live", c.ID)
	}

	const cycles = 10_000
	for i := 0; i < cycles; i++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(live) < cfg.MaxContexts:
			c := mustCtx(t, d, TaskID(rng.Intn(4)))
			if killed[c] {
				t.Fatalf("op %d: a killed context came back as ID %d", i, c.ID)
			}
			if c.ID <= lastID || c.Dead() || len(c.Channels()) != 0 || c.BusyTime != 0 {
				t.Fatalf("op %d: created context reads ID %d (last %d), dead %v, %d channels, busy %v",
					i, c.ID, lastID, c.Dead(), len(c.Channels()), c.BusyTime)
			}
			lastID = c.ID
			objects[c] = true
			mustChan(t, d, c, Compute)
			live = append(live, c)
			check("create", i)
		case op < 8 && len(live) > 0:
			c := live[rng.Intn(len(live))]
			if err := d.ReleaseContext(c); err != nil {
				t.Fatalf("op %d: release: %v", i, err)
			}
			drop(c)
			check("release", i)
		case op < 9 && len(live) > 0:
			c := live[rng.Intn(len(live))]
			d.KillContext(c)
			killed[c] = true
			drop(c)
			check("kill", i)
		default:
			owner := TaskID(rng.Intn(4))
			var keep []*Context
			for _, c := range live {
				if c.Owner == owner {
					killed[c] = true
				} else {
					keep = append(keep, c)
				}
			}
			d.KillOwner(owner)
			for c := range killed {
				if !c.Dead() {
					t.Fatalf("op %d: KillOwner(%d) left context %d alive", i, owner, c.ID)
				}
			}
			live = keep
			check("killowner", i)
		}
	}
	// Only kills cost new objects: every release is reused.
	if n := len(objects); n > cfg.MaxContexts+len(killed) {
		t.Errorf("%d context objects for %d cycles and %d kills: releases are not reused", n, cycles, len(killed))
	}
}

// TestReleasedChannelReadsAsNew reuses a released context and channel
// and checks that the reused ones read as fresh objects would: next IDs,
// zero counters, empty queues, a present page without a handler, and a
// generation that tells an old holder its handle went stale.
func TestReleasedChannelReadsAsNew(t *testing.T) {
	e, d := testDev(t)
	c := mustCtx(t, d, 1)
	ch := mustChan(t, d, c, Compute)
	ch.Reg.SetHandler(func(f *mmio.Fault) { f.Deliver() })
	for i := 0; i < 3; i++ {
		submit(e, ch, 10*time.Microsecond, Compute)
	}
	e.Run()
	if ch.Completions != 3 || ch.Reg.DirectWrites != 3 || c.BusyTime == 0 {
		t.Fatalf("setup: %d completions, %d writes, busy %v", ch.Completions, ch.Reg.DirectWrites, c.BusyTime)
	}
	ch.Reg.SetPresent(false)
	gen := ch.Generation()
	oldCtxID, oldChID := c.ID, ch.ID
	if err := d.ReleaseContext(c); err != nil {
		t.Fatal(err)
	}
	if ch.Generation() == gen {
		t.Fatal("release did not advance the channel's generation")
	}

	c2 := mustCtx(t, d, 2)
	ch2 := mustChan(t, d, c2, DMA)
	if c2 != c || ch2 != ch {
		t.Fatal("released context and channel were not reused")
	}
	if c2.ID <= oldCtxID || ch2.ID <= oldChID || c2.Owner != 2 || ch2.Kind != DMA {
		t.Fatalf("reused: context ID %d (was %d) owner %d, channel ID %d (was %d) kind %v",
			c2.ID, oldCtxID, c2.Owner, ch2.ID, oldChID, ch2.Kind)
	}
	if c2.Dead() || c2.BusyTime != 0 || len(c2.Channels()) != 1 {
		t.Fatalf("reused context: dead %v, busy %v, %d channels", c2.Dead(), c2.BusyTime, len(c2.Channels()))
	}
	if ch2.RefCount != 0 || ch2.LastSubmittedRef != 0 || ch2.Completions != 0 || ch2.Pending() != 0 ||
		len(ch2.StagedRequests()) != 0 || !ch2.Idle() {
		t.Fatalf("reused channel: ref %d, last %d, %d completions, %d pending, %d staged",
			ch2.RefCount, ch2.LastSubmittedRef, ch2.Completions, ch2.Pending(), len(ch2.StagedRequests()))
	}
	if !ch2.Reg.Present() || ch2.Reg.DirectWrites != 0 || ch2.Reg.Faults != 0 {
		t.Fatalf("reused page: present %v, %d writes, %d faults", ch2.Reg.Present(), ch2.Reg.DirectWrites, ch2.Reg.Faults)
	}
	// The first request on the reused channel gets reference 1 and is
	// served after a context switch, as on a fresh context.
	r := submit(e, ch2, 10*time.Microsecond, DMA)
	e.Run()
	if r.Ref != 1 || !r.IsDone() || r.Aborted || ch2.RefCount != 1 {
		t.Fatalf("first request on the reused channel: ref %d, done %v, RefCount %d", r.Ref, r.IsDone(), ch2.RefCount)
	}
}

// TestReleasedContextStillPaysSwitch reuses the context the engine last
// ran as the context of another owner: its first request must pay the
// context switch a fresh context pays.
func TestReleasedContextStillPaysSwitch(t *testing.T) {
	e, d := testDev(t)
	c := mustCtx(t, d, 1)
	ch := mustChan(t, d, c, Compute)
	submit(e, ch, 10*time.Microsecond, Compute)
	e.Run()
	if err := d.ReleaseContext(c); err != nil {
		t.Fatal(err)
	}
	c2 := mustCtx(t, d, 2)
	ch2 := mustChan(t, d, c2, Compute)
	if c2 != c {
		t.Fatal("released context was not reused")
	}
	at := e.Now()
	r := submit(e, ch2, 10*time.Microsecond, Compute)
	e.Run()
	want := d.Costs().DirectWrite + d.Costs().ContextSwitch
	if got := r.Started.Sub(at); got != want {
		t.Fatalf("first request on the reused context started after %v, want %v (store plus context switch)", got, want)
	}
}
