package repro

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docSources is the documentation graph whose links must never dangle:
// doc.go → README.md → DESIGN.md / EXPERIMENTS.md / SCHEDULERS.md /
// PERFORMANCE.md.
var docSources = []string{
	"doc.go", "README.md", "DESIGN.md", "EXPERIMENTS.md",
	"SCHEDULERS.md", "PERFORMANCE.md",
}

// TestDocCrossReferences pins the documentation graph: every markdown
// file and every committed trajectory point (BENCH_<n>.json) that a
// doc source points at must exist.
func TestDocCrossReferences(t *testing.T) {
	ref := regexp.MustCompile(`[A-Za-z0-9_-]+\.md|BENCH_[0-9]+\.json`)

	for _, src := range docSources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, target := range ref.FindAllString(string(data), -1) {
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s references %s, which does not exist", src, target)
			}
		}
	}
}

// TestDocSectionReferences resolves in-document section pointers:
// every "DESIGN.md §N" written anywhere in the doc graph must match an
// actual "## N." heading in DESIGN.md, so renumbering or deleting a
// section without fixing its referrers fails the build.
func TestDocSectionReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^## ([0-9]+)\.`)
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered '## N.' sections")
	}
	secRef := regexp.MustCompile(`DESIGN\.md §([0-9]+)`)
	for _, src := range docSources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, m := range secRef.FindAllStringSubmatch(string(data), -1) {
			if !sections[m[1]] {
				t.Errorf("%s references DESIGN.md §%s, which has no '## %s.' heading",
					src, m[1], m[1])
			}
		}
	}
}

// TestPerformanceDocCoversGateBenchmarks pins PERFORMANCE.md to the
// bench machinery it documents: the gate benchmarks, the regeneration
// tool, and the golden gate must be mentioned by name, so renaming any
// of them without updating the methodology doc fails the build.
func TestPerformanceDocCoversGateBenchmarks(t *testing.T) {
	data, err := os.ReadFile("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"BenchmarkSimEngine", "BenchmarkRequestPath", "BenchmarkDFQCycle",
		"BenchmarkDFQCycleTenants", "BenchmarkBoardReconcile",
		"BenchmarkRequestPathAsync", "BenchmarkClosedLoopSync",
		"BenchmarkDispatcherDrain", "BenchmarkProcHandoff", "BenchmarkProcSpawn",
		"BenchmarkEngagedSubmit", "BenchmarkServeStorm",
		"BenchmarkTable1", "BenchmarkProtection", "BenchmarkSec63DoS",
		"BenchmarkFleet", "BenchmarkPlaceRequestMixedSticky",
		"BenchmarkPlaceRequestMixedFastestFit", "BenchmarkPlaceRequestMixedClassSticky",
		"cmd/benchjson", "quick.golden", "BENCH_6.json", "BENCH_7.json",
		"BENCH_8.json", "BENCH_9.json", "BENCH_13.json", "BENCH_14.json",
		"BENCH_15.json", "BENCH_16.json", "BENCH_17.json", "BENCH_18.json",
		"BENCH_19.json", "BENCH_20.json", "BENCH_21.json", "BENCH_22.json",
		"BENCH_29.json", "BenchmarkServeSerial",
		"BenchmarkDFQCycleConsumerClass", "BenchmarkScale", "B/op",
		"TestStormTenantLiveBytes", "TestSec3CellsAllocateOnlySetup",
		"DESIGN.md §11", "DESIGN.md §12",
		"DESIGN.md §13", "DESIGN.md §14",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("PERFORMANCE.md does not mention %s", want)
		}
	}
}

// TestExperimentsDocCoversRegistry keeps EXPERIMENTS.md in step with
// the CLI: every experiment ID runnable via -exp must appear in the
// regeneration guide.
func TestExperimentsDocCoversRegistry(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, id := range []string{
		"table1", "fig2", "sec3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "protect", "sec63", "ablation-stats",
		"ablation-params", "fleet", "serve", "hetero", "tiers",
		"-exp scale", "-tenants", "-exp policy", "-policy", "-deep",
	} {
		if !strings.Contains(doc, id) {
			t.Errorf("EXPERIMENTS.md does not document experiment %q", id)
		}
	}
}

// TestDesignDocCoversEngineInternals pins DESIGN.md §11's anchor
// terms: the reference engine, pool APIs, continuation API, and the
// differential and lifecycle tests it documents must keep their names,
// or the section silently rots.
func TestDesignDocCoversEngineInternals(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"## 11.", "NextAfterNow", "refEngine", "differential_test.go",
		"TestDifferentialEventStorm", "TestQuickGolden",
		"TestPropertyTimerStopRecycledGeneration",
		"Request.Release", "Request.Pin",
		"### Process handoff", "iter.Pull", "coro.resume", "Proc.run",
		"BenchmarkProcHandoff", "BenchmarkProcSpawn",
		"TestProcSpawnParkFinishAllocs", "TestFinishedStacksAreFreed",
		"TestPooledCoroutineSurvivesKillAndPanic",
		"### Continuations and callback waiters", "sim.Cont", "Cont.WaitFor",
		"sim.Cont.WaitTimeout", "neon.Kernel.DrainOn", "neon.Kernel.SampleOn",
		"Proc.Await", "Engine.InProcContext", "Request.Unpin",
		"TestGateStormProcsAndCallbacksAgree", "TestContWaitForRechecks",
		"TestProcAwaitResumesInline", "TestKillStopsAwaitedChain",
		"TestPinnedRequestRecyclesOnce", "FuzzRequestPool", "OnDone",
		"Device.KillContext", "Engine.InitGate", "TestGateFirstWaiterInline",
		"FuzzGate", "TestFreshRequestsComeFromSlab", "TestRecycledRequestGate",
		"TestColdRebuildReturnsToPool", "TestKilledTenantRequestsReturnToPool",
		"TestKilledLoopRequestsReturnToPool",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md does not mention %s", want)
		}
	}
}

// TestDesignDocCoversScaleIndex pins DESIGN.md §12's anchor terms: the
// linear reference, the index/board types, and every test the section
// cites as evidence must keep their names.
func TestDesignDocCoversScaleIndex(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"## 12.", "core.FlowIndex", "core.FlowID", "linearLedger",
		"ledger_test.go", "fleet.Board", "eagerBoard",
		"TestDifferentialDFQIndex",
		"FuzzDFQIndexOps", "TestFlowIndexStaleHandles",
		"TestFlowIndexCorruptHeapPanics", "TestBoardUnderflowPanic",
		"TestBoardEagerClampDifferential", "FuzzBoardReconcile",
		"core.OracleFairQueueing", "BenchmarkDFQCycleTenants",
		"TestPlacementCrossClassTiesGoToLowestIndex",
		"core.Ledger.Episode", "core.Entry", "FuzzEpisode",
		"TestEpisodeLeadBoundCheckFires", "TestEpisodeFoldsByPrincipal",
		"TestOracleLeadBoundInvariant",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md does not mention %s", want)
		}
	}
}

// TestDesignDocCoversSubmission pins DESIGN.md §14's anchor terms: the
// continuation API, the continuation fault path and its admission
// predicate, the slow-path commitment rules (committed fault,
// side-effect-free peek), the batch staging surface, the continuation
// dispatcher, and every test and benchmark the section cites as
// evidence must keep their names.
func TestDesignDocCoversSubmission(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"## 14.", "userlib.SubmitAsync", "gpu.Request.OnDone",
		"mmio.StoreAsync", "SubmitSync", "userlib.Client.SubmitEngagedOn",
		"userlib.Client.SubmitSyncOn", "userlib.Client.Engaged",
		"neon.VContext.Peek", "userlib.BeginBatch", "Batch.Flush",
		"traffic.Config.BatchDrain", "StreamStats.Flushes",
		"TestSubmitAsyncRefusesEngagedChannel",
		"TestSubmitAsyncRefusesTrapPerRequest",
		"TestSubmitEngagedOnCommitsFault",
		"TestBatchDrainOneDoorbellPerBacklog",
		"TestBatchDrainUnderDFQEngagement", "TestBatchDrainStampsSojourns",
		"BenchmarkRequestPathAsync", "BenchmarkClosedLoopSync",
		"BenchmarkDispatcherDrainBatched",
		"mmio.Page.FaultOn", "neon.Admitter", "userlib.OpenOn",
		"workload.Loop", "workload.Round",
		"neon.Task.NewCont", "TestClosedLoopStacksOwnNoProcs",
		"TestKillDuringFaultWrapper", "TestKillDuringFaultAppLane",
		"TestDFQActiveAtBarrierSeesWaitingFault", "BenchmarkEngagedSubmit",
		"TestDispatcherQueueReusesArray",
		"userlib.Client.SubmitDetachedOn", "mmio.Page.StoreOn",
		"sim.Engine.NewCont", "TestServingDispatchersOwnNoProcs",
		"TestTenantLaneOversubscribed", "TestKillTenantMidLane",
		"TestDeadHandleRetiresOnTheLane", "TestRefusalHopsToTheLane",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md does not mention %s", want)
		}
	}
}

// TestDesignDocCoversMux pins DESIGN.md §13's anchor terms: the
// virtual-context table's API surface and its continuation attach path,
// the graceful-detach seam, the board batch types, and every test the
// section cites as evidence must keep their names.
func TestDesignDocCoversMux(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"## 13.", "neon.VContext", "Kernel.OpenVirtual", "MuxStats",
		"gpu.Device.ReleaseContext", "gpu.Device.CompletionObserver",
		"ContextSwitch", "ErrNoContexts",
		"core.EpisodeEntry", "Board.ReconcileEpisodeBatch",
		"TestMuxHostsStormPastContextCap", "TestMuxKillMidBacklogRecyclesSlot",
		"TestMuxTightPoolStorm", "TestBoardEagerClampDifferential",
		"BenchmarkBoardReconcile", "RunScaleFullCell",
		"Kernel.OpenVirtualOn", "VContext.AcquireOn", "CreateContextOn",
		"TestKillMidAttachStopsAcquire", "TestKillMidAttachRetiresItem",
		"FuzzMuxOps", "TestReattachAllocatesNothing", "TestReattachedChannelReadsAsNew",
		"TestUnpinWithoutPinPanics", "TestStaleChannelPanicsAtStore",
		"TestReleasedChannelReadsAsNew", "TestContextsLiveSetAfterChurn",
		"gpu.Channel.Generation", "mmio.Page.Quiet", "sim.Slab",
		"TestSlabChunksStopDoublingAtTheCap", "TestStormTenantLiveBytes",
		"fleet.Tenant.Spec", "TestSecondSubmissionInFlightPanics",
		"TestSecondAcquireInFlightPanics", "TestEvictableCountDisagreementPanics",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md does not mention %s", want)
		}
	}
}

// TestDesignDocCoversServing pins DESIGN.md §8's anchor terms: the
// serving layer's latency digest, admission and invariants, and every
// test the section cites as evidence must keep their names.
func TestDesignDocCoversServing(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"## 8.", "metrics.Digest", "FuzzDigest", "TestDigestStoresOccupiedSpan",
		"traffic.Admission", "TestServeShape", "TestDFQLeadBoundInvariant",
		"core.LeadBound", "TestServingDispatchersOwnNoProcs",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md does not mention %s", want)
		}
	}
}

// TestDesignDocCoversPolicy pins DESIGN.md §15's anchor terms: the
// policy types, the enforcement seams of the round-based allocator,
// and every test the section cites as evidence must keep their names,
// or the policy/mechanism chapter silently rots.
func TestDesignDocCoversPolicy(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"## 15.", "policy.Policy", "policy.Snapshot", "policy.Targets",
		"policy.Static", "policy.MaxMin", "policy.Hierarchical",
		"policy.CostMin", "policy.ClassPreference", "policy.TierBounds",
		"policy.DefaultPrices", "fleet.Config.AllocPolicy",
		"fleet.DefaultAllocEvery", "Tenant.EffectiveWeight",
		"fleet.OnTargets", "workload.TenantSpec.Validate",
		"core.LeadBound", "TestReweightingPreservesLeadBound",
		"TestAllocatorStaticIsInert", "TestStaticPolicyTiersByteIdentical",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md does not mention %s", want)
		}
	}
}
