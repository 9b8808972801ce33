package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleDeepGolden pins the scale experiment's -deep table: the
// standard grid plus the 10^6-tenant synthetic ledger row and the
// 10^5-tenant full-stack storm row. Regenerate deliberately with:
//
//	go test ./internal/exp -run TestScaleDeepGolden -update -timeout 30m
//
// The standard rows carry exactly the values of quick.golden's scale
// section (deep jobs append after them, so their forked seeds are
// unchanged; only column padding widens for the deep entries); a
// regeneration's diff should only ever touch the deep rows and the
// -deep note.
func TestScaleDeepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 10^6-tenant ledger and 10^5-tenant storm (minutes)")
	}
	if raceEnabled {
		t.Skip("the 10^6-tenant ledger and 10^5-tenant storm outgrow the race detector's memory; " +
			"`go test ./internal/exp -run TestScaleDeepGolden` (without -race) pins scale_deep.golden")
	}
	o := Quick()
	o.DeepScale = true
	got := ScaleExp(o).String()
	path := filepath.Join("testdata", "scale_deep.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v (run with -update to create it)", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output drifted from %s at line %d:\n  want: %q\n  got:  %q\n"+
				"If the change is intended, regenerate with -update and review the diff.",
				path, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("output drifted from %s: length %d lines vs golden %d lines. "+
		"If the change is intended, regenerate with -update and review the diff.",
		path, len(gotLines), len(wantLines))
}
