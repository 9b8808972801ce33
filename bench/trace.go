package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the simulator itself is not instrumented). Start is
// nanoseconds since the Unix epoch so spans from several processes of
// one run share a time base.
type span struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Cell  int    `json:"cell"`
	Start int64  `json:"start"`
	Dur   int64  `json:"dur"`
}

// tracer keeps a process's spans in memory until the run ends. A nil
// tracer records nothing, which is the untraced mode.
type tracer struct {
	spans []span
}

func (tr *tracer) add(name, cat string, cell int, start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{Name: name, Cat: cat, Cell: cell, Start: start.UnixNano(), Dur: int64(d)})
}

// traceEvent is one Chrome trace-event record ("X" complete events plus
// "M" process-name metadata), the format Perfetto and chrome://tracing
// load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceTrack is the spans of one child process, shown as one process
// track in the viewer.
type traceTrack struct {
	Label string
	Spans []span
}

// writeChromeTrace writes the tracks as Chrome trace-event JSON, with
// timestamps in microseconds since base.
func writeChromeTrace(path string, base time.Time, tracks []traceTrack) error {
	var events []traceEvent
	for i, tk := range tracks {
		pid := i + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": tk.Label}})
		for _, s := range tk.Spans {
			events = append(events, traceEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X", Pid: pid, Tid: 1,
				Ts:   float64(s.Start-base.UnixNano()) / 1e3,
				Dur:  float64(s.Dur) / 1e3,
				Args: map[string]any{"cell": s.Cell},
			})
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
