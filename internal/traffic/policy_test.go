package traffic

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// churnPolicy is a hostile allocation policy for the re-weighting
// invariant: every round it hands back a fresh deterministic
// pseudo-random weight vector in [0.5, 4], so live tasks re-weight
// continually while traffic flows.
type churnPolicy struct{ round int }

func (c *churnPolicy) Name() string { return "churn" }

func (c *churnPolicy) Allocate(s policy.Snapshot) policy.Targets {
	c.round++
	w := make([]float64, len(s.Tenants))
	for i := range w {
		x := float64((c.round*2654435761 + i*40503) % 1000)
		w[i] = 0.5 + 3.5*(x/999)
	}
	return policy.Targets{Weight: w}
}

// TestReweightingPreservesLeadBound is the dynamic-weight half of the
// mechanism-equivalence satellite: randomized open-loop scenarios run
// under an allocator whose policy rewrites every tenant's weight each
// round, and the weighted DFQ lead bound must still hold — weights are
// read at every charging step, each episode's window term uses that
// episode's own lightest charged weight, and past charges are never
// restated (the dynamic-weight contract in core/dfq.go). Nobody may
// starve either: a churning weight is still a positive share.
func TestReweightingPreservesLeadBound(t *testing.T) {
	const scenarios = 6
	for i := 0; i < scenarios; i++ {
		i := i
		t.Run(fmt.Sprintf("scenario%d", i), func(t *testing.T) {
			rng := sim.NewRNG(sim.StreamSeed(1, "dfq-reweight-invariant", i))
			streams, load := randomScenario(rng)
			for j := range streams {
				streams[j].Tenant.Weight = 0.5 + 3.5*rng.Float64()
			}
			eng := sim.NewEngine()
			pol := &churnPolicy{}
			srv, err := New(eng, Config{
				Fleet: fleet.Config{Devices: 1, Sched: "dfq", RunLimit: time.Second,
					Seed:        int64(rng.Intn(1 << 30)),
					AllocPolicy: pol},
				AdmitDepth: 256,
				Streams:    streams,
			})
			if err != nil {
				t.Fatal(err)
			}
			// 1.5 s at the 5 ms allocator period: about 300 rounds.
			eng.RunFor(1500 * time.Millisecond)
			if err := srv.SetupError(); err != nil {
				t.Fatal(err)
			}
			if rounds := srv.Fleet().AllocRounds; rounds < 100 {
				t.Fatalf("only %d allocator rounds; weights barely churned", rounds)
			}
			dfq := srv.Fleet().Nodes()[0].DFQ()
			if dfq == nil {
				t.Fatal("node scheduler is not DFQ")
			}
			if dfq.Cycles < 3 {
				t.Fatalf("only %d engagement episodes; scenario too idle to test anything", dfq.Cycles)
			}
			if dfq.LeadViolations() != 0 {
				t.Errorf("load %.2f: %d lead-bound violations under re-weighting (max lead %v, bound %v)",
					load, dfq.LeadViolations(), dfq.MaxLead(), dfq.LeadBound())
			}
			if dfq.MaxLead() > dfq.LeadBound() {
				t.Errorf("max observed lead %v exceeds bound %v under re-weighting",
					dfq.MaxLead(), dfq.LeadBound())
			}
			for j := range streams {
				if srv.Stats(j).Completed == 0 {
					t.Errorf("stream %d starved under re-weighting: %d arrivals, 0 completions (load %.2f)",
						j, srv.Stats(j).Arrivals, load)
				}
			}
		})
	}
}

// TestNewRejectsInvalidConfig: the serving front door validates its
// configuration with a proper error that names the culprit — a
// malformed weight must never reach the fleet's panic or the ledgers'
// silent clamp, and a stream without an arrival process must not reach
// the engine's first event.
func TestNewRejectsInvalidConfig(t *testing.T) {
	good := workload.OpenLoopTenant("ok", 100*us, 0)
	bad := workload.OpenLoopTenant("bad", 100*us, 0)
	bad.Weight = -3
	cases := []struct {
		name  string
		cfg   Config
		words []string
	}{
		{"weight", Config{
			Streams: []Stream{{Tenant: bad, Arrival: Deterministic{Rate: 100}}},
		}, []string{"stream 0", `"bad"`, "weight"}},
		{"nil-arrival", Config{
			Streams: []Stream{
				{Tenant: good, Arrival: Deterministic{Rate: 100}},
				{Tenant: workload.OpenLoopTenant("silent", 100*us, 0)},
			},
		}, []string{"stream 1", `"silent"`, "arrival"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Fleet = fleet.Config{Devices: 1, Seed: 1}
			_, err := New(sim.NewEngine(), tc.cfg)
			if err == nil {
				t.Fatal("malformed config accepted")
			}
			for _, w := range tc.words {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %s", err, w)
				}
			}
		})
	}
}

// TestPolicyDrivesTierBounds: with an allocation policy active, the
// admission controller's tier bounds follow the policy's target shares
// instead of the hard-coded MaxDepth ratios — and the static policy
// leaves the derived ratios exactly in place.
func TestPolicyDrivesTierBounds(t *testing.T) {
	build := func(pol policy.Policy) (*sim.Engine, *Server) {
		t.Helper()
		prem := workload.OpenLoopTenant("prem", 300*us, 0)
		prem.Tier = workload.TierPremium
		prem.Weight = 3
		std := workload.OpenLoopTenant("std", 300*us, 0)
		eng := sim.NewEngine()
		srv, err := New(eng, Config{
			Fleet: fleet.Config{Devices: 1, Sched: "dfq", RunLimit: time.Second,
				Seed: 1, AllocPolicy: pol},
			AdmitDepth: 64,
			Streams: []Stream{
				{Tenant: prem, Arrival: Deterministic{Rate: 2000}},
				{Tenant: std, Arrival: Deterministic{Rate: 2000}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng, srv
	}

	eng, srv := build(policy.MaxMin{})
	eng.RunFor(50 * time.Millisecond)
	adm := srv.Admission()
	// Max-min with weights 3:1 and equal saturating demands targets
	// shares 3/4 : 1/4 over two tiers → bounds 64×0.75×2 = 96 and
	// 64×0.25×2 = 32.
	if got := adm.Bound(workload.TierPremium); got != 96 {
		t.Errorf("premium bound = %d, want policy-derived 96", got)
	}
	if got := adm.Bound(workload.TierStandard); got != 32 {
		t.Errorf("standard bound = %d, want policy-derived 32", got)
	}

	eng, srv = build(policy.Static{})
	eng.RunFor(50 * time.Millisecond)
	adm = srv.Admission()
	// Static defers: the mechanism's own derivation (premium 64+16,
	// standard 64, best-effort 32) must be untouched.
	if got := adm.Bound(workload.TierPremium); got != 80 {
		t.Errorf("static premium bound = %d, want derived 80", got)
	}
	if got := adm.Bound(workload.TierStandard); got != 64 {
		t.Errorf("static standard bound = %d, want derived 64", got)
	}
	if got := adm.Bound(workload.TierBestEffort); got != 32 {
		t.Errorf("static best-effort bound = %d, want derived 32", got)
	}
}
