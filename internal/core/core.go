// Package core implements the paper's contribution: OS-level schedulers
// for fast accelerators built on interception and disengagement.
//
// Four policies from the paper, plus one ablation:
//
//   - DirectAccess: the vendor default — no OS involvement, no fairness,
//     no protection. The baseline every figure normalizes against.
//   - Timeslice (engaged): token-passing timeslices with overuse control;
//     every request submission is intercepted (Section 3.1).
//   - Disengaged Timeslice: the token holder runs unmonitored at direct
//     access speed; everyone else faults and blocks (Section 3.2).
//   - Disengaged Fair Queueing: probabilistic fair queueing driven by
//     periodic engagement episodes — barrier, drain, per-task sampling,
//     virtual-time maintenance, then a long disengaged free run
//     (Section 3.3).
//   - OracleFairQueueing: the Section 6.1 thought experiment — fair
//     queueing driven by vendor-exported per-context busy time instead of
//     sampled estimates. No barriers, no sampling, near-zero overhead;
//     used to show the prototype's estimation anomalies disappear with
//     hardware statistics.
//
// All schedulers implement neon.Scheduler and are attached with
// neon.NewKernel(device, scheduler).
package core

import (
	"fmt"
	"strings"

	"repro/internal/neon"
)

// New constructs a scheduler by policy name, using default parameters.
// Recognized names: "direct", "timeslice" ("ts"), "dts"
// ("disengaged-timeslice"), "dfq" ("disengaged-fair-queueing"), and
// "oracle" ("oracle-fq"). An unknown name is an error listing the valid
// policies.
func New(name string) (neon.Scheduler, error) {
	switch name {
	case "direct":
		return NewDirectAccess(), nil
	case "timeslice", "ts":
		return NewTimeslice(DefaultSlice), nil
	case "dts", "disengaged-timeslice":
		return NewDisengagedTimeslice(DefaultSlice), nil
	case "dfq", "disengaged-fair-queueing":
		return NewDisengagedFairQueueing(DefaultDFQConfig()), nil
	case "oracle", "oracle-fq":
		return NewOracleFairQueueing(DefaultOracleInterval), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler policy %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Names lists the selectable policies in presentation order.
func Names() []string {
	return []string{"direct", "timeslice", "dts", "dfq", "oracle"}
}

// DirectAccess is the unmanaged baseline: every channel register stays
// mapped, the kernel never intercedes, and the device's internal
// arbitration is the only scheduler. Fast, unfair, unprotected.
type DirectAccess struct{}

// NewDirectAccess returns the baseline policy.
func NewDirectAccess() *DirectAccess { return &DirectAccess{} }

// Name implements neon.Scheduler.
func (*DirectAccess) Name() string { return "direct" }

// Start implements neon.Scheduler.
func (*DirectAccess) Start(*neon.Kernel) {}

// TaskAdmitted implements neon.Scheduler.
func (*DirectAccess) TaskAdmitted(*neon.Task) {}

// TaskExited implements neon.Scheduler.
func (*DirectAccess) TaskExited(*neon.Task) {}

// ChannelActivated implements neon.Scheduler; channels stay direct-mapped.
func (*DirectAccess) ChannelActivated(cs *neon.ChannelState) {
	cs.Ch.Reg.SetPresent(true)
}

var _ neon.Scheduler = (*DirectAccess)(nil)
