package traffic

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// randomScenario draws one open-loop serving scenario from a forked RNG
// stream: 2-4 streams with random sizes, arrival process families, and
// a random aggregate load factor in [0.5, 1.4].
func randomScenario(rng *sim.RNG) (streams []Stream, load float64) {
	n := 2 + rng.Intn(3)
	load = 0.5 + 0.9*rng.Float64()
	weight := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		size := time.Duration(50+rng.Intn(750)) * time.Microsecond
		rate := load * weight / size.Seconds()
		var a Arrival
		switch rng.Intn(4) {
		case 0:
			a = Deterministic{Rate: rate}
		case 1:
			a = Poisson{Rate: rate}
		case 2:
			// On/off burst process with the same mean rate.
			a = NewMMPP(0, 4*rate, 30*time.Millisecond, 10*time.Millisecond)
		default:
			a = Diurnal{Base: rate, Amplitude: 0.8, Period: 80 * time.Millisecond}
		}
		streams = append(streams, Stream{
			Tenant:  workload.OpenLoopTenant(fmt.Sprintf("s%d", i), size, 0),
			Arrival: a,
		})
	}
	return streams, load
}

// TestNormalizedDFQLeadBoundMixedFleet extends the lead-bound property
// to heterogeneous fleets: randomized open-loop scenarios served by a
// mixed-class fleet (one device per class, per-device DFQ with
// normalized Work charges reconciling through the fleet board) must
// keep every device's observed lead within its LeadBound — the bound is
// stated in normalized work, so it is only meaningful because the
// ledger is. Streams must also keep completing on every scenario: the
// normalization must not starve anyone.
func TestNormalizedDFQLeadBoundMixedFleet(t *testing.T) {
	const scenarios = 6
	classMixes := [][]string{
		{"k20", "consumer"},
		{"k20", "nextgen"},
		{"k20", "consumer", "nextgen"},
	}
	for i := 0; i < scenarios; i++ {
		i := i
		t.Run(fmt.Sprintf("scenario%d", i), func(t *testing.T) {
			rng := sim.NewRNG(sim.StreamSeed(1, "dfq-hetero-invariant", i))
			classes := classMixes[rng.Intn(len(classMixes))]
			streams, load := randomScenario(rng)
			policy, err := fleet.NewPolicy("fastest-fit")
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine()
			srv, err := New(eng, Config{
				Fleet: fleet.Config{
					Devices:  len(classes),
					Classes:  classes,
					Policy:   policy,
					Sched:    "dfq",
					RunLimit: time.Second,
					Seed:     int64(rng.Intn(1 << 30)),
				},
				AdmitDepth: 256,
				Streams:    streams,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunFor(600 * time.Millisecond)
			if err := srv.SetupError(); err != nil {
				t.Fatal(err)
			}

			var cycles int64
			for _, node := range srv.Fleet().Nodes() {
				dfq := node.DFQ()
				if dfq == nil {
					t.Fatal("node scheduler is not DFQ")
				}
				cycles += dfq.Cycles
				if dfq.LeadViolations() != 0 {
					t.Errorf("%s (%s, load %.2f): %d lead-bound violations (max lead %v, bound %v)",
						node.Device.Name(), node.Class.Name, load,
						dfq.LeadViolations(), dfq.MaxLead(), dfq.LeadBound())
				}
				if dfq.MaxLead() > dfq.LeadBound() {
					t.Errorf("%s: max observed lead %v exceeds bound %v",
						node.Device.Name(), dfq.MaxLead(), dfq.LeadBound())
				}
			}
			if cycles < 3 {
				t.Fatalf("only %d engagement episodes fleet-wide; scenario too idle to test anything", cycles)
			}
			if srv.Fleet().Board().Episodes == 0 {
				t.Fatal("no board reconciliations: per-device DFQ is not reporting")
			}
			for j := range streams {
				if srv.Stats(j).Completed == 0 {
					t.Errorf("stream %d starved: %d arrivals, 0 completions (classes %v, load %.2f)",
						j, srv.Stats(j).Arrivals, classes, load)
				}
			}
		})
	}
}

// TestWeightedDFQLeadBoundInvariant extends the lead-bound property to
// weighted tenants: randomized open-loop scenarios whose streams carry
// random fair-share weights in [0.5, 4]. Virtual time is charged at
// charge/weight, so the bound's window term is the engagement window
// over the lightest charged weight (core's LeadBound tracks that);
// within it, no backlogged tenant may lead the system virtual time,
// and no stream may starve — a small weight buys a small share, not
// zero service.
func TestWeightedDFQLeadBoundInvariant(t *testing.T) {
	const scenarios = 6
	for i := 0; i < scenarios; i++ {
		i := i
		t.Run(fmt.Sprintf("scenario%d", i), func(t *testing.T) {
			rng := sim.NewRNG(sim.StreamSeed(1, "dfq-weighted-invariant", i))
			streams, load := randomScenario(rng)
			for j := range streams {
				streams[j].Tenant.Weight = 0.5 + 3.5*rng.Float64()
				if j == 0 {
					streams[j].Tenant.Weight = 4 // always one heavyweight in the mix
				}
			}
			eng := sim.NewEngine()
			srv, err := New(eng, Config{
				Fleet:      fleet.Config{Devices: 1, Sched: "dfq", RunLimit: time.Second, Seed: int64(rng.Intn(1 << 30))},
				AdmitDepth: 256,
				Streams:    streams,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunFor(600 * time.Millisecond)
			if err := srv.SetupError(); err != nil {
				t.Fatal(err)
			}

			dfq := srv.Fleet().Nodes()[0].DFQ()
			if dfq == nil {
				t.Fatal("node scheduler is not DFQ")
			}
			if dfq.Cycles < 3 {
				t.Fatalf("only %d engagement episodes; scenario too idle to test anything", dfq.Cycles)
			}
			if dfq.LeadViolations() != 0 {
				t.Errorf("load %.2f: %d weighted lead-bound violations (max lead %v, bound %v)",
					load, dfq.LeadViolations(), dfq.MaxLead(), dfq.LeadBound())
			}
			if dfq.MaxLead() > dfq.LeadBound() {
				t.Errorf("max observed lead %v exceeds weighted bound %v", dfq.MaxLead(), dfq.LeadBound())
			}
			for j := range streams {
				if srv.Stats(j).Completed == 0 {
					t.Errorf("stream %d (weight %.2f) starved: %d arrivals, 0 completions (load %.2f)",
						j, streams[j].Tenant.ShareWeight(), srv.Stats(j).Arrivals, load)
				}
			}
		})
	}
}

// TestDFQLeadBoundInvariant is the property-based fairness invariant:
// across randomized open-loop scenarios (each from its own forked RNG
// stream), no backlogged tenant's virtual time may lead the minimum —
// the system virtual time — by more than the paper's bound of one
// free-run horizon plus one engagement window (core's LeadBound), and
// the device must never sit idle while work is queued in its rings
// (work conservation).
func TestDFQLeadBoundInvariant(t *testing.T) { leadBoundInvariant(t, "dfq") }

// TestOracleLeadBoundInvariant runs TestDFQLeadBoundInvariant's
// scenarios under the oracle. Its intervals end in the same episode
// routine (core.Ledger.Episode), so it keeps the same record: no lead
// may pass one interval (the horizon) plus one interval and scheduler
// compute (the window).
func TestOracleLeadBoundInvariant(t *testing.T) { leadBoundInvariant(t, "oracle") }

// leadRecord is the lead-bound record DFQ and the oracle keep.
type leadRecord interface {
	MaxLead() core.Work
	LeadViolations() int64
	LeadBound() core.Work
}

func leadBoundInvariant(t *testing.T, sched string) {
	const scenarios = 6
	for i := 0; i < scenarios; i++ {
		i := i
		t.Run(fmt.Sprintf("scenario%d", i), func(t *testing.T) {
			rng := sim.NewRNG(sim.StreamSeed(1, "dfq-invariant", i))
			streams, load := randomScenario(rng)
			eng := sim.NewEngine()
			srv, err := New(eng, Config{
				Fleet:      fleet.Config{Devices: 1, Sched: sched, RunLimit: time.Second, Seed: int64(rng.Intn(1 << 30))},
				AdmitDepth: 256,
				Streams:    streams,
			})
			if err != nil {
				t.Fatal(err)
			}
			node := srv.Fleet().Nodes()[0]

			// Work-conservation sampler: a violation is the device sitting
			// idle at two consecutive probes while requests wait in its
			// rings. (A single probe can legitimately catch the instant
			// between a doorbell and the engine picking the work up within
			// one tick; persistence across 100µs cannot.)
			idleWithWork := 0
			violations := 0
			var probe func()
			probe = func() {
				pending := 0
				for _, ctx := range node.Device.Contexts() {
					for _, ch := range ctx.Channels() {
						pending += ch.Pending()
					}
				}
				if node.Device.CurrentRequest() == nil && pending > 0 {
					idleWithWork++
					if idleWithWork >= 2 {
						violations++
					}
				} else {
					idleWithWork = 0
				}
				eng.After(100*time.Microsecond, probe)
			}
			eng.After(100*time.Microsecond, probe)

			eng.RunFor(600 * time.Millisecond)
			if err := srv.SetupError(); err != nil {
				t.Fatal(err)
			}

			var rec leadRecord
			var episodes int64
			switch s := node.Sched.(type) {
			case *core.DisengagedFairQueueing:
				rec, episodes = s, s.Cycles
			case *core.OracleFairQueueing:
				rec, episodes = s, s.Intervals
			default:
				t.Fatalf("node scheduler is %T", node.Sched)
			}
			if episodes < 3 {
				t.Fatalf("only %d episodes; scenario too idle to test anything", episodes)
			}
			t.Logf("%s, load %.2f: max lead %v, bound %v", sched, load, rec.MaxLead(), rec.LeadBound())
			if rec.LeadViolations() != 0 {
				t.Errorf("load %.2f: %d lead-bound violations (max lead %v, bound %v)",
					load, rec.LeadViolations(), rec.MaxLead(), rec.LeadBound())
			}
			if rec.MaxLead() > rec.LeadBound() {
				t.Errorf("max observed lead %v exceeds bound %v", rec.MaxLead(), rec.LeadBound())
			}
			if violations != 0 {
				t.Errorf("work conservation: device idle with ring work at %d consecutive probes", violations)
			}
			for j := range streams {
				if srv.Stats(j).Completed == 0 {
					t.Errorf("stream %d starved: %d arrivals, 0 completions (load %.2f)",
						j, srv.Stats(j).Arrivals, load)
				}
			}
		})
	}
}
