package main

// A unit is the work one child process does: some cells of one pass, a
// ladder, or the suite's reference render. Passes run in child
// processes because the simulator never releases the goroutines of its
// procs: a finished stack stays reachable from them, so a process that
// ran many passes would hold every pass's heap (about 390 MB per scale
// pass).

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
)

type unit struct {
	// Kind is "cells", "ladder" or "reference".
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// From and To select the cells of a "cells" unit.
	From  int  `json:"from"`
	To    int  `json:"to"`
	Trace bool `json:"trace"`
	Quick bool `json:"quick"`
}

// unitReport is what a unit measured. Times are host time.
type unitReport struct {
	// Launch is when the parent started the unit and WorkStart when the
	// unit began its cells (Unix nanoseconds); the gap is process start.
	Launch    int64    `json:"launch"`
	WorkStart int64    `json:"work_start"`
	WallNS    int64    `json:"wall_ns"`
	SetupNS   int64    `json:"setup_ns"`
	Work      int64    `json:"work"`
	Mallocs   uint64   `json:"mallocs"`
	MaxRSSKB  int64    `json:"max_rss_kb"`
	GCCycles  uint32   `json:"gc_cycles"`
	GCPauseNS uint64   `json:"gc_pause_ns"`
	Names     []string `json:"names"`
	// Results are the cells' deterministic outputs and Errors their
	// failures ("" for none), parallel to Names.
	Results []string           `json:"results"`
	Errors  []string           `json:"errors"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

func runUnit(u unit) (unitReport, error) {
	switch u.Kind {
	case "cells":
		return runCellsUnit(u)
	case "ladder":
		return runLadderUnit(u)
	case "reference":
		o := exp.Quick()
		o.Seed = u.Seed
		o.Parallel = 2
		return unitReport{Names: []string{"reference"}, Results: []string{exp.RenderAll(o)}, Errors: []string{""}}, nil
	}
	return unitReport{}, fmt.Errorf("unknown unit kind %q", u.Kind)
}

// measured runs body between two memory-statistics reads and fills in
// the report's host-cost fields.
func measured(rep *unitReport, body func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	body()
	rep.WorkStart = start.UnixNano()
	rep.WallNS = int64(time.Since(start))
	runtime.ReadMemStats(&after)
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.GCCycles = after.NumGC - before.NumGC
	rep.GCPauseNS = after.PauseTotalNs - before.PauseTotalNs
	rep.MaxRSSKB = maxRSSKB()
}

func runCellsUnit(u unit) (unitReport, error) {
	w, ok := workloadByName(u.Workload)
	if !ok {
		return unitReport{}, fmt.Errorf("unknown workload %q", u.Workload)
	}
	all := w.cells(u.Seed, u.Quick)
	if u.From < 0 || u.To > len(all) || u.From >= u.To {
		return unitReport{}, fmt.Errorf("cells %d..%d out of range for %s (%d cells)", u.From, u.To, w.name, len(all))
	}
	prefix := w.name
	if w.name == "suite" {
		prefix = "exp"
	}
	var rep unitReport
	var tr *tracer
	if u.Trace {
		tr = &tracer{}
		rep.Layer = map[string]float64{}
	}
	measured(&rep, func() {
		for i, c := range all[u.From:u.To] {
			m := &meter{prefix: prefix, tr: tr, cell: u.From + i, layer: rep.Layer}
			start := time.Now()
			res, err := runCell(c, m)
			tr.add(c.name, "cell", m.cell, start, time.Since(start))
			rep.Names = append(rep.Names, c.name)
			rep.Results = append(rep.Results, res)
			rep.Errors = append(rep.Errors, errText(err))
			rep.SetupNS += int64(m.setup)
			rep.Work += m.work
		}
	})
	if tr != nil {
		rep.Spans = tr.spans
	}
	return rep, nil
}

func runLadderUnit(u unit) (unitReport, error) {
	rungs, ok := ladders[u.Workload]
	if !ok {
		return unitReport{}, fmt.Errorf("no ladder for %q", u.Workload)
	}
	l := &ladder{seed: u.Seed, quick: u.Quick, out: map[string]float64{}}
	tr := &tracer{}
	rep := unitReport{Layer: l.out}
	measured(&rep, func() {
		for i, r := range rungs {
			start := time.Now()
			err := runRung(r, l)
			tr.add(r.name, "rung", i, start, time.Since(start))
			rep.Names = append(rep.Names, r.name)
			rep.Results = append(rep.Results, "")
			rep.Errors = append(rep.Errors, errText(err))
		}
	})
	rep.Spans = tr.spans
	return rep, nil
}

// runRung runs r, turning a panic into its error.
func runRung(r rung, l *ladder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.run(l)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// maxRSSKB returns this process's peak resident set in KiB: VmHWM, the
// high-water mark of the process's own memory map. (getrusage's
// ru_maxrss would also count the parent's resident set at fork.)
func maxRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
