package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

const ms = time.Millisecond

// wms is a board charge of n milliseconds of normalized work.
func wms(n int) core.Work { return core.Work(n) * core.Work(ms) }

// reconcile reports one device episode to b in map form: charges is the
// normalized work charged to each principal, and active marks the
// principals with work pending there (false clears the mark). It builds
// the []core.EpisodeEntry batch, calls ReconcileEpisodeBatch, and
// returns the reconciled lead of every principal in either argument.
func reconcile(b *Board, device string, charges map[string]core.Work,
	active map[string]bool) map[string]core.Work {
	batch := make([]core.EpisodeEntry, 0, len(charges)+len(active))
	idx := make(map[string]int, len(charges)+len(active))
	for name, c := range charges {
		idx[name] = len(batch)
		batch = append(batch, core.EpisodeEntry{Principal: b.Principal(name), Charge: c})
	}
	for name, a := range active {
		if j, ok := idx[name]; ok {
			batch[j].Marked = true
			batch[j].Active = a
			continue
		}
		idx[name] = len(batch)
		batch = append(batch, core.EpisodeEntry{Principal: b.Principal(name), Marked: true, Active: a})
	}
	b.ReconcileEpisodeBatch(device, batch)
	leads := make(map[string]core.Work, len(batch))
	for name, j := range idx {
		leads[name] = batch[j].Lead
	}
	return leads
}

func TestBoardAccumulatesAcrossDevices(t *testing.T) {
	b := NewBoard()

	// A consumes on two devices in the same window; B on one.
	reconcile(b, "dev0", map[string]core.Work{"A": wms(5), "B": wms(5)},
		map[string]bool{"A": true, "B": true})
	leads := reconcile(b, "dev1", map[string]core.Work{"A": wms(5)},
		map[string]bool{"A": true})

	if got := b.VirtualTime("A"); got != wms(10) {
		t.Fatalf("A virtual time = %v, want 10ms (charges from both devices)", got)
	}
	if leads["A"] != wms(10)-b.SystemVirtualTime() {
		t.Fatalf("A lead = %v, sysVT = %v", leads["A"], b.SystemVirtualTime())
	}
	if leads["A"] <= 0 {
		t.Fatalf("multi-device consumer should lead the system VT, got %v", leads["A"])
	}
}

func TestBoardSystemVTFollowsOldestActive(t *testing.T) {
	b := NewBoard()
	reconcile(b, "dev0", map[string]core.Work{"A": wms(8), "B": wms(2)},
		map[string]bool{"A": true, "B": true})
	if got := b.SystemVirtualTime(); got != wms(2) {
		t.Fatalf("sysVT = %v, want 2ms (oldest active VT)", got)
	}
	// B goes idle: it forfeits unused credit up to the system VT.
	reconcile(b, "dev0", map[string]core.Work{"A": wms(4)},
		map[string]bool{"A": true, "B": false})
	if got, sys := b.VirtualTime("B"), b.SystemVirtualTime(); got != sys {
		t.Fatalf("idle B vt = %v, want forfeited to sysVT %v", got, sys)
	}
}

func TestBoardLateJoinerStartsAtSystemVT(t *testing.T) {
	b := NewBoard()
	reconcile(b, "dev0", map[string]core.Work{"A": wms(8)},
		map[string]bool{"A": true})
	leads := reconcile(b, "dev1", nil, map[string]bool{"C": true})
	if leads["C"] != 0 {
		t.Fatalf("late joiner lead = %v, want 0 (starts at system VT)", leads["C"])
	}
}

// TestBoardHeterogeneousCharges reconciles episodes whose per-episode
// charge rates differ because the reporting devices are of different
// classes. Once charges are stated in normalized work, equal *work*
// must mean equal ledger positions no matter which device reported it:
// 10ms of consumer-card device time (speed 0.5) and 2.5ms of nextgen
// time (speed 2.0) are the same 5ms of work.
func TestBoardHeterogeneousCharges(t *testing.T) {
	slow, err := cost.ClassByName("consumer")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cost.ClassByName("nextgen")
	if err != nil {
		t.Fatal(err)
	}

	b := NewBoard()
	// Register both principals before any charge so neither gets a
	// late-joiner head start.
	reconcile(b, "dev-slow", nil, map[string]bool{"A": true})
	reconcile(b, "dev-fast", nil, map[string]bool{"B": true})
	// A is served by the slow device, B by the fast one; both receive
	// the same normalized work per episode, delivered as very different
	// amounts of device time.
	for i := 0; i < 4; i++ {
		reconcile(b, "dev-slow",
			map[string]core.Work{"A": core.WorkFor(10*ms, slow.Speed)},
			map[string]bool{"A": true})
		reconcile(b, "dev-fast",
			map[string]core.Work{"B": core.WorkFor(2500*time.Microsecond, fast.Speed)},
			map[string]bool{"B": true})
	}
	if va, vb := b.VirtualTime("A"), b.VirtualTime("B"); va != vb {
		t.Fatalf("equal normalized work must reconcile to equal VTs: A=%v B=%v", va, vb)
	}
	if got := b.VirtualTime("A"); got != wms(20) {
		t.Fatalf("A vt = %v, want 20ms of work over 4 episodes", got)
	}

	// The same episodes charged raw (device time, unscaled) split the
	// ledger 4:1 — the distortion the RawCharges ablation reintroduces
	// and the hetero experiment shows starving slow-device tenants.
	raw := NewBoard()
	reconcile(raw, "dev-slow", nil, map[string]bool{"A": true})
	reconcile(raw, "dev-fast", nil, map[string]bool{"B": true})
	for i := 0; i < 4; i++ {
		reconcile(raw, "dev-slow", map[string]core.Work{"A": wms(10)},
			map[string]bool{"A": true})
		reconcile(raw, "dev-fast",
			map[string]core.Work{"B": core.Work(2500 * time.Microsecond)},
			map[string]bool{"B": true})
	}
	if va, vb := raw.VirtualTime("A"), raw.VirtualTime("B"); va != 4*vb {
		t.Fatalf("raw charges should overcharge the slow-device tenant 4:1, got A=%v B=%v", va, vb)
	}
}

// TestBoardEpochLeadBound pins the epoch-batching contract: against a
// per-episode board on an identical charge stream, a batched board's
// reported leads are never lower (denial stays conservative — the stale
// system virtual time is an under-estimate), and never exceed the
// per-episode lead by more than the total work charged since the
// batched board's last fold. Every principal stays fleet-active so the
// only divergence source is the fold cadence itself.
func TestBoardEpochLeadBound(t *testing.T) {
	const epoch = 4
	b1 := NewBoardWith(8, 1)
	be := NewBoardWith(8, epoch)
	rng := sim.NewRNG(sim.StreamSeed(1, "board-epoch-bound", 0))

	names := []string{"A", "B", "C", "D", "E"}
	var sinceFold core.Work
	for ep := 0; ep < 200; ep++ {
		charges := map[string]core.Work{}
		active := map[string]bool{}
		var total core.Work
		for j, n := range names {
			// Skewed rates keep a genuine leader and a laggard.
			c := wms(1+rng.Intn(3*(j+1))) / 4
			charges[n] = c
			active[n] = true
			total += c
		}
		dev := "dev" + string(rune('0'+ep%2))
		foldsBefore := be.Folds
		l1 := reconcile(b1, dev, charges, active)
		le := reconcile(be, dev, charges, active)
		if be.Folds > foldsBefore {
			sinceFold = 0
		} else {
			sinceFold += total
		}
		for _, n := range names {
			if le[n] < l1[n] {
				t.Fatalf("episode %d: batched lead for %s = %v below per-episode lead %v; denial no longer conservative",
					ep, n, le[n], l1[n])
			}
			if over := le[n] - l1[n]; over > sinceFold {
				t.Fatalf("episode %d: batched lead for %s over-estimates by %v, more than the %v charged since the last fold",
					ep, n, over, sinceFold)
			}
		}
	}
	if want := int64(200 / epoch); be.Folds != want {
		t.Fatalf("batched board folded %d times over 200 episodes, want %d (epoch %d)", be.Folds, want, epoch)
	}
	if b1.Folds != b1.Episodes {
		t.Fatalf("per-episode board must fold every episode: %d folds, %d episodes", b1.Folds, b1.Episodes)
	}
}

// TestBoardShardCountInvariance reruns one randomized reconciliation
// stream on boards with 1, 3, and 16 shards and requires identical
// virtual times, system virtual time, and reported leads: sharding is a
// cost structure, never a semantics knob.
func TestBoardShardCountInvariance(t *testing.T) {
	run := func(shards int) (*Board, []map[string]core.Work) {
		b := NewBoardWith(shards, 1)
		rng := sim.NewRNG(sim.StreamSeed(1, "board-shard-invariance", 0))
		names := make([]string, 40)
		for i := range names {
			names[i] = "tenant-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		var all []map[string]core.Work
		for ep := 0; ep < 120; ep++ {
			charges := map[string]core.Work{}
			active := map[string]bool{}
			for k := 0; k < 12; k++ {
				n := names[rng.Intn(len(names))]
				charges[n] = wms(1 + rng.Intn(5))
				active[n] = true
			}
			for k := 0; k < 4; k++ {
				active[names[rng.Intn(len(names))]] = false
			}
			all = append(all, reconcile(b, "dev"+string(rune('0'+ep%3)), charges, active))
		}
		return b, all
	}

	ref, refLeads := run(1)
	for _, shards := range []int{3, 16} {
		b, leads := run(shards)
		if got, want := b.SystemVirtualTime(), ref.SystemVirtualTime(); got != want {
			t.Fatalf("%d shards: sysVT = %v, want %v (1 shard)", shards, got, want)
		}
		for _, n := range ref.Principals() {
			if got, want := b.VirtualTime(n), ref.VirtualTime(n); got != want {
				t.Fatalf("%d shards: %s vt = %v, want %v (1 shard)", shards, n, got, want)
			}
		}
		for ep := range refLeads {
			for n, want := range refLeads[ep] {
				if got := leads[ep][n]; got != want {
					t.Fatalf("%d shards: episode %d lead for %s = %v, want %v (1 shard)", shards, ep, n, got, want)
				}
			}
		}
	}
}

// TestBoardShardUnderflowPanic pins the corruption tripwire: a
// deactivation that finds its shard heap slot not holding the principal
// it claims must panic with the tenant's name rather than let the
// fairness ledger rot silently.
func TestBoardShardUnderflowPanic(t *testing.T) {
	b := NewBoard()
	reconcile(b, "dev0", map[string]core.Work{"victim": wms(3)},
		map[string]bool{"victim": true})
	// Corrupt the slab: point the principal at a heap slot that does not
	// exist, as a lost heap write would.
	b.slab[b.byName["victim"]].heapPos = 99

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deactivating a principal with corrupt shard accounting must panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, `"victim"`) || !strings.Contains(msg, "underflow") {
			t.Fatalf("panic %v must name the tenant and the underflow", r)
		}
	}()
	reconcile(b, "dev0", nil, map[string]bool{"victim": false})
}

// TestFleetWideFairness pins the tentpole property: a principal drawing
// service from two devices at once is throttled everywhere, so its
// fleet-wide share converges to the same as a single-device principal's.
// Without the board, the wide principal keeps one full device plus a
// half share of the contended one (~3x a fair share).
func TestFleetWideFairness(t *testing.T) {
	ratio := func(board *Board) float64 {
		eng := sim.NewEngine()
		mkNode := func(name string) *neon.Kernel {
			cfg := gpu.DefaultConfig()
			cfg.Name = name
			dcfg := core.DFQConfig{}
			if board != nil {
				dcfg.Fleet = board
			}
			return neon.NewKernel(gpu.New(eng, cfg), core.NewDisengagedFairQueueing(dcfg))
		}
		k0, k1 := mkNode("dev0"), mkNode("dev1")
		spec := workload.Throttle(300*time.Microsecond, 0)

		// "wide" runs on both devices at once; "narrow" shares dev0.
		wide := spec
		wide.Name = "wide"
		narrow := spec
		narrow.Name = "narrow"
		w0 := workload.Launch(k0, wide)
		w1 := workload.Launch(k1, wide)
		n0 := workload.Launch(k0, narrow)
		eng.RunFor(500 * ms)

		wideBusy := w0.Task.BusyTime() + w1.Task.BusyTime()
		return float64(wideBusy) / float64(n0.Task.BusyTime())
	}

	without := ratio(nil)
	with := ratio(NewBoard())
	if without < 2.2 {
		t.Fatalf("without reconciliation the wide principal should get ~3x, got %.2fx", without)
	}
	if with >= without {
		t.Fatalf("reconciliation did not reduce the wide principal's share: %.2fx vs %.2fx", with, without)
	}
	if with > 1.8 {
		t.Fatalf("with reconciliation the wide principal should be near parity, got %.2fx", with)
	}
}

// eagerBoard is the pre-shard reference semantics of the fleet
// virtual-time exchange, written as directly as possible: flat maps, a
// full scan per fold, and the idle forfeit applied *eagerly* to every
// fleet-idle principal at the end of each episode — where the real
// board clamps lazily at charge/activate/read time. It exists only for
// the differential test below.
type eagerBoard struct {
	vt       map[string]core.Work
	activeOn map[string]map[string]bool
	sysVT    core.Work
}

func newEagerBoard() *eagerBoard {
	return &eagerBoard{vt: map[string]core.Work{}, activeOn: map[string]map[string]bool{}}
}

func (e *eagerBoard) ensure(name string) {
	if _, ok := e.vt[name]; !ok {
		e.vt[name] = e.sysVT
		e.activeOn[name] = map[string]bool{}
	}
}

// episode mirrors the exchange's contract: all charges land first,
// then activity marks, then the fold, then the eager idle clamp, then
// leads. Every step is commutative across principals, so map iteration
// order cannot change the outcome.
func (e *eagerBoard) episode(device string, charges map[string]core.Work,
	active map[string]bool) map[string]core.Work {
	for name := range charges {
		e.ensure(name)
	}
	for name := range active {
		e.ensure(name)
	}
	for name, c := range charges {
		e.vt[name] += c
	}
	for name, a := range active {
		if a {
			e.activeOn[name][device] = true
		} else {
			delete(e.activeOn[name], device)
		}
	}
	first := true
	var min core.Work
	for name, devs := range e.activeOn {
		if len(devs) == 0 {
			continue
		}
		if vt := e.vt[name]; first || vt < min {
			min, first = vt, false
		}
	}
	if !first && min > e.sysVT {
		e.sysVT = min
	}
	for name, devs := range e.activeOn {
		if len(devs) == 0 && e.vt[name] < e.sysVT {
			e.vt[name] = e.sysVT
		}
	}
	leads := make(map[string]core.Work)
	for name := range charges {
		leads[name] = e.vt[name] - e.sysVT
	}
	for name := range active {
		leads[name] = e.vt[name] - e.sysVT
	}
	return leads
}

// TestBoardEagerClampDifferential pins ReconcileEpisodeBatch's same-episode
// ordering against the eager-clamp reference: a principal charged and
// deactivated in the *same* episode must keep the charge, leave the
// active set, and forfeit down to the system virtual time only when it
// later catches up — exactly what charges-before-marks plus the lazy
// read clamp produce. The storm forces that case every episode (some
// tenants appear in charges and in active=false simultaneously) across
// three reporting devices, and the comparison covers every reported
// lead, every principal's virtual time, and the system virtual time, at
// shard counts 1 and 8.
func TestBoardEagerClampDifferential(t *testing.T) {
	for _, shards := range []int{1, 8} {
		b := NewBoardWith(shards, 1)
		ref := newEagerBoard()
		rng := sim.NewRNG(sim.StreamSeed(2, "board-eager-differential", shards))
		names := make([]string, 60)
		for i := range names {
			names[i] = "tenant-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		for ep := 0; ep < 300; ep++ {
			charges := map[string]core.Work{}
			active := map[string]bool{}
			for k := 0; k < 10; k++ {
				n := names[rng.Intn(len(names))]
				charges[n] = wms(1 + rng.Intn(5))
				active[n] = true
			}
			// The ordering under test: charge and deactivate at once.
			for k := 0; k < 3; k++ {
				n := names[rng.Intn(len(names))]
				charges[n] = wms(1 + rng.Intn(5))
				active[n] = false
			}
			// Plus plain departures with no same-episode charge.
			for k := 0; k < 3; k++ {
				active[names[rng.Intn(len(names))]] = false
			}
			dev := "dev" + string(rune('0'+ep%3))
			got := reconcile(b, dev, charges, active)
			want := ref.episode(dev, charges, active)
			if len(got) != len(want) {
				t.Fatalf("shards %d, episode %d: %d leads reported, reference has %d",
					shards, ep, len(got), len(want))
			}
			for n, w := range want {
				if got[n] != w {
					t.Fatalf("shards %d, episode %d: lead for %s = %v, reference %v",
						shards, ep, n, got[n], w)
				}
			}
			if got, want := b.SystemVirtualTime(), ref.sysVT; got != want {
				t.Fatalf("shards %d, episode %d: sysVT = %v, reference %v", shards, ep, got, want)
			}
		}
		for _, n := range b.Principals() {
			if got, want := b.VirtualTime(n), ref.vt[n]; got != want {
				t.Fatalf("shards %d: final vt for %s = %v, reference %v", shards, n, got, want)
			}
		}
	}
}
