package traffic

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

const us = time.Microsecond

// oneStream builds a single-device server with one open-loop stream.
func oneStream(t *testing.T, sched string, admitDepth int, size sim.Duration, a Arrival) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	srv, err := New(eng, Config{
		Fleet:      fleet.Config{Devices: 1, Sched: sched, RunLimit: time.Second, Seed: 1},
		AdmitDepth: admitDepth,
		Streams: []Stream{
			{Tenant: workload.OpenLoopTenant("web", size, 0), Arrival: a},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// Arrivals run as timer chains, not processes: a freshly built server
// holds no live proc until its first arrival spawns a dispatcher.
func TestNewSpawnsNoArrivalProcs(t *testing.T) {
	eng, _ := oneStream(t, "direct", 0, 10*us, Poisson{Rate: 1000})
	if n := eng.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d right after New, want 0", n)
	}
}

// scripted is an Arrival that returns a fixed list of gaps, then goes
// silent. Each draw records its instant and how many arrivals the
// stream had counted by then.
type scripted struct {
	gaps  []sim.Duration
	srv   *Server
	draws []scriptedDraw
}

type scriptedDraw struct {
	at       sim.Time
	arrivals int64
}

func (*scripted) MeanRate() float64 { return 0 }

func (a *scripted) Next(now sim.Time, _ *sim.RNG) sim.Duration {
	a.draws = append(a.draws, scriptedDraw{now, a.srv.Stats(0).Arrivals})
	if len(a.draws) > len(a.gaps) {
		return never
	}
	return a.gaps[len(a.draws)-1]
}

// A gap of zero delivers the next arrival in the same instant, before
// the next gap is drawn: after a first gap of 100µs, k zero gaps yield
// k+1 arrivals at 100µs, each drawn after the one before it arrived.
func TestZeroGapsArriveInline(t *testing.T) {
	const k = 4
	a := &scripted{gaps: []sim.Duration{100 * us}}
	for i := 0; i < k; i++ {
		a.gaps = append(a.gaps, 0)
	}
	eng, srv := oneStream(t, "direct", 0, 10*us, a)
	a.srv = srv
	eng.RunFor(time.Millisecond)
	if got := srv.Stats(0).Arrivals; got != k+1 {
		t.Fatalf("arrivals = %d, want %d", got, k+1)
	}
	if len(a.draws) != k+2 || a.draws[0] != (scriptedDraw{0, 0}) {
		t.Fatalf("draws = %v, want %d with the first at 0 before any arrival", a.draws, k+2)
	}
	for i, d := range a.draws[1:] {
		if want := (scriptedDraw{sim.Time(100 * us), int64(i + 1)}); d != want {
			t.Fatalf("draw %d = %+v, want %+v", i+1, d, want)
		}
	}
	if got := srv.Stats(0).Completed; got != k+1 {
		t.Fatalf("completed = %d, want %d", got, k+1)
	}
}

// TestOpenLoopLatencyStamping: under direct access at light load, every
// completion carries a sojourn close to its service time, and goodput
// matches the offered rate.
func TestOpenLoopLatencyStamping(t *testing.T) {
	eng, srv := oneStream(t, "direct", 0, 200*us, Deterministic{Rate: 1000})
	eng.RunFor(500 * time.Millisecond)
	if err := srv.SetupError(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats(0)
	if st.Completed < 450 {
		t.Fatalf("completed %d of ~500 offered", st.Completed)
	}
	if st.Shed != 0 || st.Aborted != 0 {
		t.Fatalf("unexpected shed=%d aborted=%d at 20%% load", st.Shed, st.Aborted)
	}
	p50, p99 := st.Latency.Quantile(0.5), st.Latency.Quantile(0.99)
	if p50 < 200*us || p50 > 260*us {
		t.Fatalf("p50 sojourn %v, want ~service time 200µs", p50)
	}
	if p99 > 400*us {
		t.Fatalf("p99 sojourn %v at 20%% load, want well under 2x service", p99)
	}
}

// TestOpenLoopArrivalsIgnoreCompletions: open-loop means the source
// never slows down under overload — arrivals track the offered rate
// even when the device can serve a fraction of them.
func TestOpenLoopArrivalsIgnoreCompletions(t *testing.T) {
	// 3x overload: size 300µs at 10000/s offered on one device.
	eng, srv := oneStream(t, "direct", 0, 300*us, Deterministic{Rate: 10000})
	eng.RunFor(300 * time.Millisecond)
	st := srv.Stats(0)
	if st.Arrivals < 2900 || st.Arrivals > 3100 {
		t.Fatalf("arrivals %d, want ~3000: the source must not close the loop", st.Arrivals)
	}
	// Service keeps up with at most capacity (~3333/s -> ~1000).
	if st.Completed > 1100 {
		t.Fatalf("completed %d exceeds device capacity", st.Completed)
	}
	// No admission control: the backlog is the difference.
	if depth := srv.Fleet().QueueDepth(); depth < 1500 {
		t.Fatalf("queue depth %d, want ~2000 unserved requests queued", depth)
	}
}

// TestAdmissionBoundsQueueDepth: with a depth bound, overload turns
// into shed rate instead of unbounded queues, and sojourns stay
// bounded by the backlog the bound allows.
func TestAdmissionBoundsQueueDepth(t *testing.T) {
	eng, srv := oneStream(t, "direct", 32, 300*us, Deterministic{Rate: 10000})
	probe := func() {
		if depth := srv.Fleet().QueueDepth(); depth > 32 {
			t.Fatalf("queue depth %d exceeded admission bound 32", depth)
		}
	}
	for at := 10 * time.Millisecond; at < 300*time.Millisecond; at += 10 * time.Millisecond {
		eng.After(at, probe)
	}
	eng.RunFor(300 * time.Millisecond)
	st := srv.Stats(0)
	if st.ShedRate() < 0.5 {
		t.Fatalf("shed rate %.2f under 3x overload, want >= 0.5", st.ShedRate())
	}
	if st.Completed < 900 {
		t.Fatalf("completed %d: admission must not starve goodput", st.Completed)
	}
	// 32 queued requests of 300µs bound the sojourn at ~10ms.
	if p99 := st.Latency.Quantile(0.99); p99 > 15*time.Millisecond {
		t.Fatalf("p99 %v: admission should bound latency at depth*size", p99)
	}
}

// TestServeResetStats: warmup exclusion must clear counters but keep
// the system serving.
func TestServeResetStats(t *testing.T) {
	eng, srv := oneStream(t, "dfq", 64, 200*us, Poisson{Rate: 2000})
	eng.RunFor(100 * time.Millisecond)
	srv.ResetStats()
	if st := srv.Stats(0); st.Arrivals != 0 || st.Completed != 0 || st.Latency.N() != 0 {
		t.Fatal("ResetStats left stream counters behind")
	}
	eng.RunFor(200 * time.Millisecond)
	if st := srv.Stats(0); st.Completed == 0 {
		t.Fatal("no completions after ResetStats")
	}
}

// TestStickyPlacementServesFromWarmDevice: with sticky placement and
// light load, a tenant's requests stay on one device and pay no cold
// reconstruction; round-robin pays it nearly every request.
func TestStickyPlacementServesFromWarmDevice(t *testing.T) {
	build := func(policy string) *StreamStats {
		eng := sim.NewEngine()
		pol, err := fleet.NewPolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(eng, Config{
			Fleet:      fleet.Config{Devices: 2, Policy: pol, Sched: "direct", RunLimit: time.Second, Seed: 1},
			AdmitDepth: 0,
			Streams: []Stream{
				{Tenant: workload.OpenLoopTenant("warm", 200*us, 400*us), Arrival: Deterministic{Rate: 1000}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(200 * time.Millisecond)
		return srv.Stats(0)
	}
	sticky := build("sticky")
	rr := build("rr")
	if sticky.ColdTime > 0 {
		t.Fatalf("sticky placement paid %v cold time at light load", sticky.ColdTime)
	}
	if rr.ColdTime == 0 {
		t.Fatal("round-robin paid no cold time; the working-set model is not wired")
	}
	if sticky.Latency.Quantile(0.5) >= rr.Latency.Quantile(0.5) {
		t.Fatalf("sticky p50 %v not better than round-robin p50 %v",
			sticky.Latency.Quantile(0.5), rr.Latency.Quantile(0.5))
	}
}
