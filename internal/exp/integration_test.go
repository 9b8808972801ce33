package exp

// Integration tests: whole-stack scenarios that cross module boundaries —
// task churn under every scheduler, protection racing real work, and
// randomized-mix fairness properties.

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestTaskChurn launches and kills tasks under every scheduler while a
// long-lived app keeps running; nothing may deadlock or starve.
func TestTaskChurn(t *testing.T) {
	for _, s := range append(AllScheds(), Oracle) {
		s := s
		t.Run(string(s), func(t *testing.T) {
			opts := Quick()
			dct, _ := workload.ByName("DCT")
			rig := NewRig(s, opts, dct)
			survivor := rig.Apps[0]

			// Churn: a new throttle every 40ms, killed 60ms later.
			for i := 0; i < 8; i++ {
				at := time.Duration(40*(i+1)) * time.Millisecond
				rig.Engine.After(at, func() {
					app := workload.Launch(rig.Kernel, workload.Throttle(200*time.Microsecond, 0))
					rig.Engine.After(60*time.Millisecond, func() {
						rig.Kernel.KillTask(app.Task, "churn")
					})
				})
			}
			rig.Engine.RunFor(600 * time.Millisecond)
			if !survivor.Alive() {
				t.Fatal("survivor died during churn")
			}
			if survivor.Rounds == 0 {
				t.Fatal("survivor starved during churn")
			}
			if got := len(rig.Kernel.Tasks()); got != 1 {
				t.Fatalf("%d tasks alive after churn, want 1", got)
			}
		})
	}
}

// TestProtectionDuringContention: the kill must single out the attacker
// even while several innocent tasks have queued work.
func TestProtectionDuringContention(t *testing.T) {
	opts := Quick()
	opts.RunLimit = 30 * time.Millisecond
	dct, _ := workload.ByName("DCT")
	fft, _ := workload.ByName("FFT")
	rig := NewRig(DFQ, opts, dct, fft)
	attacker := workload.LaunchInfiniteKernel(rig.Kernel, 5)
	rig.Engine.RunFor(500 * time.Millisecond)
	if attacker.Task.Alive {
		t.Fatal("attacker survived")
	}
	for _, app := range rig.Apps {
		if !app.Alive() {
			t.Fatalf("innocent %s was killed", app.Spec.Name)
		}
		if app.Rounds == 0 {
			t.Fatalf("innocent %s starved", app.Spec.Name)
		}
	}
}

// TestPropertyFairSharesUnderDTS: for random saturating request sizes,
// Disengaged Timeslice keeps Jain's fairness index over device-time
// shares high, regardless of the mix.
func TestPropertyFairSharesUnderDTS(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(aRaw, bRaw uint16) bool {
		// Request sizes in [10us, 2ms].
		a := time.Duration(10+int(aRaw)%1990) * time.Microsecond
		b := time.Duration(10+int(bRaw)%1990) * time.Microsecond
		opts := Quick()
		opts.Measure = 300 * time.Millisecond
		sa := workload.Throttle(a, 0)
		sa.Name = "A"
		sb := workload.Throttle(b, 0)
		sb.Name = "B"
		rig := NewRig(DTS, opts, sa, sb)
		rig.Measure()
		x := float64(rig.Apps[0].Task.BusyTime())
		y := float64(rig.Apps[1].Task.BusyTime())
		if x+y == 0 {
			return false
		}
		return metrics.JainIndex([]float64{x, y}) > 0.93
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNoStarvationUnderDFQ: with random pairings, every task
// completes work under Disengaged Fair Queueing.
func TestPropertyNoStarvationUnderDFQ(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(aRaw, bRaw, cRaw uint16) bool {
		mk := func(raw uint16, name string) workload.Spec {
			s := workload.Throttle(time.Duration(10+int(raw)%1490)*time.Microsecond, 0)
			s.Name = name
			return s
		}
		opts := Quick()
		opts.Measure = 300 * time.Millisecond
		rig := NewRig(DFQ, opts, mk(aRaw, "A"), mk(bRaw, "B"), mk(cRaw, "C"))
		rig.Measure()
		for _, app := range rig.Apps {
			if app.Rounds == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsScale: Full and Quick must differ only in windows.
func TestOptionsScale(t *testing.T) {
	f, q := Full(), Quick()
	if f.Measure <= q.Measure || f.Warmup <= q.Warmup {
		t.Fatal("Full should use longer windows than Quick")
	}
	if f.GraphicsPenalty != q.GraphicsPenalty || f.RunLimit != q.RunLimit || f.Seed != q.Seed {
		t.Fatal("non-window options should match")
	}
}

// TestSchedLabels: every policy renders a human label.
func TestSchedLabels(t *testing.T) {
	for _, s := range append(AllScheds(), Oracle) {
		if s.Label() == "" || s.Label() == string(s) && s != Direct {
			t.Errorf("missing label for %q", s)
		}
	}
	if Sched("x").Label() != "x" {
		t.Error("unknown sched should echo its name")
	}
}
