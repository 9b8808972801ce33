package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestEpisodeLeadBoundCheckFires shows the lead-bound check counting.
// Two flows are active with window W and horizon 5W. One is always
// passed in as denied, so it is never charged and the system virtual
// time stays at 0. The caller ignores the other flow's denial, so that
// flow is charged the whole window every episode and its lead after
// episode n is nW. It is first denied at episode 5 (lead exactly 5W,
// the horizon), and the check first counts at episode 7 (lead 7W over
// the bound 5W + W).
func TestEpisodeLeadBoundCheckFires(t *testing.T) {
	const w = 30 * time.Millisecond
	var l Ledger
	held, runner := l.Add(), l.Add()
	p := EpisodeParams{Window: w, Horizon: 5 * w, Speed: 1}
	firstDenied := 0
	for n := 1; n <= 8; n++ {
		es := []Entry{
			{Flow: held, Weight: 1, Active: true, Denied: true, Use: w},
			{Flow: runner, Weight: 1, Active: true, Use: w},
		}
		l.Episode(es, p)
		if l.SysVT() != 0 {
			t.Fatalf("episode %d: system virtual time %v moved, but the only other active flow is never charged", n, l.SysVT())
		}
		if got, want := es[1].Lead, Work(n)*Work(w); got != want {
			t.Fatalf("episode %d: lead %v, want %v", n, got, want)
		}
		if es[1].Denied && firstDenied == 0 {
			firstDenied = n
		}
		if got, want := l.LeadBound(), Work(6*w); got != want {
			t.Fatalf("episode %d: bound %v, want %v", n, got, want)
		}
		if got, want := l.LeadViolations(), int64(max(0, n-6)); got != want {
			t.Fatalf("episode %d: %d violations, want %d (lead %v, bound %v)", n, got, want, es[1].Lead, l.LeadBound())
		}
	}
	if firstDenied != 5 {
		t.Fatalf("the runner was first denied at episode %d, want 5 (lead equal to the horizon)", firstDenied)
	}
	if got := l.MaxLead(); got != 8*Work(w) {
		t.Fatalf("max lead %v, want %v", got, 8*Work(w))
	}
}

// recordingFleet is a FleetVT that keeps the last batch it was sent and
// answers each principal's lead from a table.
type recordingFleet struct {
	rows []EpisodeEntry
	lead map[PrincipalID]Work
}

func (f *recordingFleet) Principal(string) PrincipalID { return 0 }

func (f *recordingFleet) ReconcileEpisodeBatch(_ string, batch []EpisodeEntry) {
	for i := range batch {
		batch[i].Lead = f.lead[batch[i].Principal]
	}
	f.rows = append(f.rows[:0], batch...)
}

// TestEpisodeFoldsByPrincipal pins the fleet fold: the exchange gets
// one marked row per principal, in first-appearance order, whose charge
// is the sum of its entries' and whose activity is their OR; every
// entry reads its principal's fleet lead, and its denial follows that
// lead, not the device's own. The next episode starts a fresh fold.
func TestEpisodeFoldsByPrincipal(t *testing.T) {
	const w = 10 * time.Millisecond
	var l Ledger
	a1, b, a2 := l.Add(), l.Add(), l.Add()
	fl := &recordingFleet{lead: map[PrincipalID]Work{7: Work(5 * w), 3: 0}}
	p := EpisodeParams{Window: w, Horizon: 5 * w, Speed: 1, Fleet: fl, Device: "dev0"}
	es := []Entry{
		{Flow: a1, Principal: 7, Weight: 1, Active: true, Use: w},
		{Flow: b, Principal: 3, Weight: 1, Active: false, Use: w},
		{Flow: a2, Principal: 7, Weight: 2, Active: false, Use: w},
	}
	l.Episode(es, p)
	want := []EpisodeEntry{
		{Principal: 7, Charge: Work(w), Active: true, Marked: true, Lead: Work(5 * w)},
		{Principal: 3, Marked: true},
	}
	if len(fl.rows) != len(want) {
		t.Fatalf("batch %+v, want %+v", fl.rows, want)
	}
	for i := range want {
		if fl.rows[i] != want[i] {
			t.Fatalf("row %d: %+v, want %+v", i, fl.rows[i], want[i])
		}
	}
	for i, wantDenied := range []bool{true, false, true} {
		if es[i].Denied != wantDenied || es[i].Lead != fl.lead[es[i].Principal] {
			t.Fatalf("entry %d: lead %v denied %v, want the fleet lead %v and denied %v",
				i, es[i].Lead, es[i].Denied, fl.lead[es[i].Principal], wantDenied)
		}
	}

	l.Episode(es[1:2], p)
	if len(fl.rows) != 1 || fl.rows[0].Principal != 3 || fl.rows[0].Charge != 0 {
		t.Fatalf("second episode's batch %+v, want one empty row for principal 3", fl.rows)
	}
}

// episodeSeeds seed FuzzEpisode. The first reaches a denial under the
// estimated split (TestEpisodeSeedsDeny), the second under measured
// charges.
var episodeSeeds = [][]byte{
	{1, 16, 99, 1, 0x18, 255, 0x19, 1, 16, 99, 1, 0x18, 255, 0x19, 1},
	{3, 33, 49, 1, 0x18, 255, 0x39, 128, 0x1a, 40, 0x0b, 90, 33, 49, 1, 0x18, 255, 0x39, 128, 0x1a, 40, 0x0b, 90},
}

// TestEpisodeSeedsDeny keeps FuzzEpisode's corpus honest: each seed
// must drive some entry into a denial.
func TestEpisodeSeedsDeny(t *testing.T) {
	for i, seed := range episodeSeeds {
		if n := runEpisodes(t, seed); n == 0 {
			t.Errorf("seed %d reaches no denial", i)
		}
	}
}

// FuzzEpisode decodes bytes into engagement episodes over at most 8
// flows and checks each against the linear reference (linearLedger,
// ledger_test.go). Like DFQ, the caller passes each flow's last denial
// back in.
func FuzzEpisode(f *testing.F) {
	for _, seed := range episodeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runEpisodes(t, data) })
}

// runEpisodes runs the episodes data encodes and returns how many
// entries came out denied. Byte 0 picks the flow count (1 to 8). Each
// episode is three header bytes and two bytes per entry:
//
//   - header 0: bit 0 measured charges, bits 1-2 the speed (1, 0.5, 2,
//     1), bits 3-7 the entry count mod 17 (entries may repeat a flow);
//   - header 1: the window, (1+b) × 10 µs;
//   - header 2: the horizon, (b mod 8) windows;
//   - entry 0: the flow (low three bits, mod the count), bit 3 active,
//     bits 4-5 the weight (0.5, 1, 2, 4);
//   - entry 1: Use, b/255 of the window. Measured use is what the flow
//     ran: nothing while denied, and at most the window over all its
//     entries.
//
// After every episode it checks that no active lead exceeded the bound,
// that each entry is denied exactly when its lead reaches the horizon,
// that the system virtual time never falls, and that every virtual
// time, lead and the system virtual time equal the episode restated
// over the linear reference, charging before marking.
func runEpisodes(t *testing.T, data []byte) (denials int) {
	if len(data) == 0 {
		return 0
	}
	n := 1 + int(data[0]%8)
	data = data[1:]
	var l Ledger
	lin := &linearLedger{}
	ids, linIDs := make([]FlowID, n), make([]FlowID, n)
	for i := range ids {
		ids[i], linIDs[i] = l.Add(), lin.Add()
	}
	denied := make([]bool, n)
	used := make([]sim.Duration, n)
	var es []Entry
	var who []int
	for ep := 0; len(data) >= 3 && ep < 256; ep++ {
		h := data[0]
		p := EpisodeParams{
			Window:   sim.Duration(1+int(data[1])) * 10 * time.Microsecond,
			Speed:    []float64{1, 0.5, 2, 1}[h>>1&3],
			Measured: h&1 != 0,
		}
		p.Horizon = p.Window * sim.Duration(data[2]%8)
		data = data[3:]

		es, who = es[:0], who[:0]
		clear(used)
		for k := int(h>>3) % 17; k > 0 && len(data) >= 2; k-- {
			i := int(data[0]&7) % n
			e := Entry{
				Flow:   ids[i],
				Weight: []float64{0.5, 1, 2, 4}[data[0]>>4&3],
				Active: data[0]&8 != 0,
				Denied: denied[i],
				Use:    p.Window * sim.Duration(data[1]) / 255,
			}
			if p.Measured {
				if e.Denied {
					e.Use = 0
				}
				e.Use = min(e.Use, p.Window-used[i])
				used[i] += e.Use
			}
			data = data[2:]
			es, who = append(es, e), append(who, i)
		}

		restateEpisode(lin, linIDs, who, es, p)
		before := l.SysVT()
		l.Episode(es, p)

		if l.LeadViolations() != 0 || l.MaxLead() > l.LeadBound() {
			t.Fatalf("episode %d: %d violations, max lead %v, bound %v",
				ep, l.LeadViolations(), l.MaxLead(), l.LeadBound())
		}
		if l.SysVT() < before {
			t.Fatalf("episode %d: system virtual time fell from %v to %v", ep, before, l.SysVT())
		}
		if l.SysVT() != lin.sysVT {
			t.Fatalf("episode %d: system virtual time %v, reference %v", ep, l.SysVT(), lin.sysVT)
		}
		for i := range ids {
			if a, b := l.VT(ids[i]), lin.VT(linIDs[i]); a != b {
				t.Fatalf("episode %d: flow %d virtual time %v, reference %v", ep, i, a, b)
			}
		}
		horizon := WorkFor(p.Horizon, p.Speed)
		for j, e := range es {
			if ref := lin.Lead(linIDs[who[j]]); e.Lead != ref {
				t.Fatalf("episode %d entry %d: lead %v, reference %v", ep, j, e.Lead, ref)
			}
			if e.Denied != (e.Lead >= horizon) {
				t.Fatalf("episode %d entry %d: denied %v with lead %v and horizon %v", ep, j, e.Denied, e.Lead, horizon)
			}
			denied[who[j]] = e.Denied
			if e.Denied {
				denials++
			}
		}
	}
	return denials
}

// restateEpisode applies an episode's charges and marks to the linear
// reference in the other order, charges first, which Episode says
// yields the same virtual times.
func restateEpisode(lin *linearLedger, ids []FlowID, who []int, es []Entry, p EpisodeParams) {
	var estSum sim.Duration
	for _, e := range es {
		if e.Active && !e.Denied {
			estSum += e.Use
		}
	}
	for j, e := range es {
		use := e.Use
		if !p.Measured {
			use = 0
			if e.Active && !e.Denied && estSum > 0 {
				use = sim.Duration(float64(p.Window) * float64(e.Use) / float64(estSum))
			}
		}
		lin.Charge(ids[who[j]], PerWeight(WorkFor(use, p.Speed), e.Weight))
	}
	for j, e := range es {
		lin.SetActive(ids[who[j]], e.Active)
	}
	lin.AdvanceSysVT()
}
