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

// TestBoardUnderflowPanic pins the corruption tripwire: a principal
// leaving its last device must still be active in the ledger, or the
// board's accounting has been corrupted, and the deactivation panics
// with the tenant's name rather than let the fairness ledger rot
// silently.
func TestBoardUnderflowPanic(t *testing.T) {
	b := NewBoard()
	reconcile(b, "dev0", map[string]core.Work{"victim": wms(3)},
		map[string]bool{"victim": true})
	// Drop the principal's flow behind the board's back, as a lost
	// ledger write would.
	b.ledger.Remove(b.slab[b.byName["victim"]].flow)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deactivating a principal the ledger no longer holds must panic")
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

// eagerBoard is the reference semantics of the fleet virtual-time
// exchange, written as directly as possible: flat maps, a full scan per
// fold, and the idle forfeit applied *eagerly* to every fleet-idle
// principal at the end of each episode — where the board's FlowIndex
// clamps lazily at charge/activate/read time. It exists only for the
// differential test and the fuzzer below.
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
// lead, every principal's virtual time, and the system virtual time.
func TestBoardEagerClampDifferential(t *testing.T) {
	b := NewBoard()
	ref := newEagerBoard()
	rng := sim.NewRNG(sim.StreamSeed(2, "board-eager-differential", 1))
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
		checkAgainstEager(t, b, ref, ep, reconcile(b, dev, charges, active),
			ref.episode(dev, charges, active))
	}
}

// checkAgainstEager fails unless the board agrees with the eager
// reference after one episode: every reported lead, the system virtual
// time, every principal's virtual time, and the active population —
// the ledger's active flows are exactly the principals active on some
// device.
func checkAgainstEager(t *testing.T, b *Board, ref *eagerBoard, ep int,
	got, want map[string]core.Work) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("episode %d: %d leads reported, reference has %d", ep, len(got), len(want))
	}
	for n, w := range want {
		if got[n] != w {
			t.Fatalf("episode %d: lead for %s = %v, reference %v", ep, n, got[n], w)
		}
	}
	if got, want := b.SystemVirtualTime(), ref.sysVT; got != want {
		t.Fatalf("episode %d: sysVT = %v, reference %v", ep, got, want)
	}
	for _, n := range b.Principals() {
		if got, want := b.VirtualTime(n), ref.vt[n]; got != want {
			t.Fatalf("episode %d: vt for %s = %v, reference %v", ep, n, got, want)
		}
	}
	masked, refActive := 0, 0
	for i := range b.slab {
		if b.slab[i].activeOn != 0 {
			masked++
		}
	}
	for _, devs := range ref.activeOn {
		if len(devs) > 0 {
			refActive++
		}
	}
	if n := b.ledger.ActiveLen(); n != masked || n != refActive {
		t.Fatalf("episode %d: ledger holds %d active flows, %d principals have a device mask, reference has %d active",
			ep, n, masked, refActive)
	}
}

// FuzzBoardReconcile drives the board and the eager reference through
// arbitrary episodes over at most 16 principals and 4 devices and
// checks them against each other after every episode. Each episode is
// a header byte (device, entry count) and two bytes per entry: the
// principal and what the entry does (charge only, charge and mark
// active, charge and mark idle, or mark idle), then the charge. A
// principal appears at most once per batch, as the exchange's contract
// requires.
func FuzzBoardReconcile(f *testing.F) {
	f.Add([]byte{4, 0x10, 5, 0x11, 2, 9, 0x20, 7, 0x31, 0, 1, 0x01, 3})
	f.Add([]byte{29, 0x10, 255, 0x11, 1, 0x12, 2, 0x13, 3, 0x14, 4, 0x15, 5, 0x16, 6, 0x17, 7,
		2, 0x30, 0, 0x21, 9, 5, 0x30, 0, 0x11, 3, 3, 0x10, 1, 0x31, 0})
	names := make([]string, 16)
	for i := range names {
		names[i] = "tenant-" + string(rune('a'+i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBoard()
		ref := newEagerBoard()
		for n, ep := 0, 0; n < len(data) && ep < 512; ep++ {
			hdr := data[n]
			n++
			dev := "dev" + string(rune('0'+hdr%4))
			charges := map[string]core.Work{}
			active := map[string]bool{}
			for k := int(hdr/4) % 9; k > 0 && n+1 < len(data); k-- {
				op, arg := data[n], data[n+1]
				n += 2
				name := names[op%16]
				if _, ok := charges[name]; ok {
					continue
				}
				if _, ok := active[name]; ok {
					continue
				}
				switch op / 16 % 4 {
				case 0:
					charges[name] = core.Work(arg) * 1000
				case 1:
					charges[name] = core.Work(arg) * 1000
					active[name] = true
				case 2:
					charges[name] = core.Work(arg) * 1000
					active[name] = false
				case 3:
					active[name] = false
				}
			}
			checkAgainstEager(t, b, ref, ep, reconcile(b, dev, charges, active),
				ref.episode(dev, charges, active))
		}
	})
}
