package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// stormEngine is the engine surface stormTrace drives. The production
// engine implements it through prodEngine; refEngine is the reference.
type stormEngine interface {
	After(d Duration, fn func()) interface{ Stop() bool }
	Run()
	Reset()
	Now() Time
	Pending() int
}

// prodEngine adapts the production engine (a 4-ary heap over a slab)
// to stormEngine.
type prodEngine struct{ *Engine }

func (p prodEngine) After(d Duration, fn func()) interface{ Stop() bool } {
	return p.Engine.After(d, fn)
}

// refEngine is the reference event queue the production engine must
// match: a container/heap binary heap ordered by (time, seq), with
// cancellation as a flag checked at pop.
type refEngine struct {
	now     Time
	seq     uint64
	pending int
	q       refHeap
}

// refEvent is one scheduled callback. done is set when it fires, is
// stopped, or is dropped by Reset; a done event's timer is stale.
type refEvent struct {
	t    Time
	seq  uint64
	fn   func()
	done bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

type refTimer struct {
	r  *refEngine
	ev *refEvent
}

func (t refTimer) Stop() bool {
	if t.ev.done {
		return false
	}
	t.ev.done = true
	t.r.pending--
	return true
}

func (r *refEngine) After(d Duration, fn func()) interface{ Stop() bool } {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{t: r.now.Add(d), seq: r.seq, fn: fn}
	r.seq++
	r.pending++
	heap.Push(&r.q, ev)
	return refTimer{r, ev}
}

func (r *refEngine) Run() {
	for r.q.Len() > 0 {
		ev := heap.Pop(&r.q).(*refEvent)
		if ev.done {
			continue
		}
		ev.done = true
		r.pending--
		r.now = ev.t
		ev.fn()
	}
}

func (r *refEngine) Reset() {
	for _, ev := range r.q {
		ev.done = true
	}
	r.q = r.q[:0]
	r.now, r.seq, r.pending = 0, 0, 0
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return r.pending }

// stormTrace drives one randomized event storm on e and returns the
// full execution trace. The storm mixes same-tick bursts (FIFO order),
// delays from nanoseconds to days, cancellations, nested rescheduling,
// and a mid-run Reset followed by a second storm on the recycled slab.
func stormTrace(e stormEngine, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	record := func(id int) func() {
		return func() { trace = append(trace, fmt.Sprintf("%d@%d", id, e.Now())) }
	}
	// Delays spread over every scale, so one heap holds events about to
	// fire next to events whole simulated days away.
	delay := func() Duration {
		switch rng.Intn(5) {
		case 0:
			return Duration(rng.Intn(3)) // same-tick and next-tick bursts
		case 1:
			return Duration(rng.Intn(1 << 16)) // up to 65 µs
		case 2:
			return Duration(rng.Intn(1 << 24)) // up to 17 ms
		case 3:
			return Duration(rng.Intn(1 << 40)) // up to 18 minutes
		default:
			return Duration(1<<46 + rng.Int63n(1<<50)) // 19 hours to 14 days
		}
	}
	storm := func(base, n int) {
		var timers []interface{ Stop() bool }
		for i := 0; i < n; i++ {
			id := base + i
			switch rng.Intn(4) {
			case 0:
				// Nested: reschedule once from inside the event.
				d2 := delay()
				tm := e.After(delay(), func() {
					trace = append(trace, fmt.Sprintf("%d@%d", id, e.Now()))
					e.After(d2, record(id+1_000_000))
				})
				timers = append(timers, tm)
			default:
				timers = append(timers, e.After(delay(), record(id)))
			}
		}
		// Cancel a random quarter; record which, so both engines cancel
		// the same logical events.
		for _, idx := range rng.Perm(len(timers))[:len(timers)/4] {
			stopped := timers[idx].Stop()
			trace = append(trace, fmt.Sprintf("stop%d=%v", idx, stopped))
		}
		e.Run()
	}
	storm(0, 400)
	trace = append(trace, fmt.Sprintf("end1@%d pending=%d", e.Now(), e.Pending()))
	e.Reset()
	storm(10_000, 300)
	trace = append(trace, fmt.Sprintf("end2@%d pending=%d", e.Now(), e.Pending()))
	return trace
}

// TestDifferentialEventStorm runs randomized storms on the production
// queue and the binary-heap reference and requires identical execution
// traces: same events, same times, same order within ties. This is the
// bit-for-bit (time, seq) contract any future queue swap must preserve.
func TestDifferentialEventStorm(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		prod := stormTrace(prodEngine{NewEngine()}, seed)
		ref := stormTrace(&refEngine{}, seed)
		if len(prod) != len(ref) {
			t.Fatalf("seed %d: trace lengths differ: production %d vs reference %d",
				seed, len(prod), len(ref))
		}
		for i := range prod {
			if prod[i] != ref[i] {
				t.Fatalf("seed %d: traces diverge at %d: production %q vs reference %q",
					seed, i, prod[i], ref[i])
			}
		}
	}
}

// TestPropertyTimerStopRecycledGeneration: a Timer handle that survived
// its event's recycling must be inert. Slab slots are reused aggressively
// (free-list, LIFO), so this drives fire/stop/refire cycles designed to
// make stale handles point at recycled slots and asserts no stale Stop
// ever cancels the slot's new occupant (generation counters).
func TestPropertyTimerStopRecycledGeneration(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		fired := map[int]bool{}
		var stale []Timer
		live := map[int]Timer{}
		next := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < 10; i++ {
				id := next
				next++
				live[id] = e.After(Duration(rng.Intn(50)), func() { fired[id] = true })
			}
			// Every handle from previous rounds is stale by now (fired or
			// stopped events recycle their slots): Stop must be a no-op
			// returning false.
			for _, tm := range stale {
				if tm.Stop() {
					t.Fatalf("seed %d: stale Timer.Stop() cancelled a recycled slot", seed)
				}
			}
			// Stop a few live ones before running; those must report true
			// exactly once and their events must not fire.
			stoppedIDs := map[int]bool{}
			for id, tm := range live {
				if rng.Intn(4) == 0 {
					if !tm.Stop() {
						t.Fatalf("seed %d: live Timer.Stop() = false", seed)
					}
					if tm.Stop() {
						t.Fatalf("seed %d: second Stop() on same handle = true", seed)
					}
					stoppedIDs[id] = true
				}
			}
			e.Run()
			for id, tm := range live {
				if stoppedIDs[id] == fired[id] {
					t.Fatalf("seed %d: event %d stopped=%v fired=%v",
						seed, id, stoppedIDs[id], fired[id])
				}
				stale = append(stale, tm)
				delete(live, id)
			}
		}
		// Reset bumps every slot's generation: handles minted before the
		// Reset must stay inert against the rebuilt free list too.
		pre := e.After(10, func() {})
		e.Reset()
		if pre.Stop() {
			t.Fatal("Timer from before Reset cancelled a post-Reset slot")
		}
		post := false
		e.After(10, func() { post = true })
		e.Run()
		if !post {
			t.Fatal("post-Reset event lost")
		}
	}
}
