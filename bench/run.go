package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// runner executes one unit and reports what it measured.
type runner func(u unit) (unitReport, error)

// childRunner runs each unit in a fresh child process of exe and waits
// for it to exit.
func childRunner(exe string) runner {
	return func(u unit) (unitReport, error) {
		arg, err := json.Marshal(u)
		if err != nil {
			return unitReport{}, err
		}
		cmd := exec.Command(exe, "-child", string(arg))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		launch := time.Now()
		if err := cmd.Run(); err != nil {
			return unitReport{}, fmt.Errorf("unit %s: %w", arg, err)
		}
		var rep unitReport
		if err := json.Unmarshal(lastLine(out.Bytes()), &rep); err != nil {
			return unitReport{}, fmt.Errorf("unit %s: reading report: %w", arg, err)
		}
		rep.Launch = launch.UnixNano()
		return rep, nil
	}
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// pass is one pass over a workload's cells, possibly spread over
// several units.
type pass struct {
	wall, setup time.Duration
	// calib is the mean calibration time before the pass's units.
	calib    time.Duration
	work     int64
	mallocs  uint64
	rssKB    int64
	gcCycles uint32
	gcPause  time.Duration
	names    []string
	results  []string
	errors   []string
	layer    map[string]float64
	tracks   []traceTrack
}

// runPass runs every cell of w once.
func runPass(run runner, w workloadDef, seed int64, trace, quick bool) pass {
	n := len(w.cells(seed, quick))
	per := w.perChild
	if per == 0 {
		per = n
	}
	p := pass{layer: map[string]float64{}}
	units := 0
	for from := 0; from < n; from += per {
		u := unit{Kind: "cells", Workload: w.name, Seed: seed, From: from, To: min(from+per, n), Trace: trace, Quick: quick}
		p.calib += calibrate()
		units++
		rep, err := run(u)
		if err != nil {
			// The unit's process failed: every cell it held failed.
			for i := u.From; i < u.To; i++ {
				p.names = append(p.names, fmt.Sprintf("cell %d", i))
				p.results = append(p.results, "")
				p.errors = append(p.errors, err.Error())
			}
			continue
		}
		p.wall += time.Duration(rep.WallNS)
		p.setup += time.Duration(rep.WorkStart-rep.Launch) + time.Duration(rep.SetupNS)
		p.work += rep.Work
		p.mallocs += rep.Mallocs
		p.rssKB = max(p.rssKB, rep.MaxRSSKB)
		p.gcCycles += rep.GCCycles
		p.gcPause += time.Duration(rep.GCPauseNS)
		p.names = append(p.names, rep.Names...)
		p.results = append(p.results, rep.Results...)
		p.errors = append(p.errors, rep.Errors...)
		mergeLayer(p.layer, rep.Layer)
		if trace {
			label := fmt.Sprintf("%s cells %d-%d", w.name, u.From, u.To-1)
			p.tracks = append(p.tracks, traceTrack{Label: label, Spans: rep.Spans})
		}
	}
	p.calib /= time.Duration(units)
	return p
}

// mergeLayer adds src's per-layer counts into dst; peaks take the max.
func mergeLayer(dst, src map[string]float64) {
	for k, v := range src {
		if k == "neon.hwctx_peak" {
			dst[k] = max(dst[k], v)
			continue
		}
		dst[k] += v
	}
}

// checker tallies attempted and failed operations and the reasons.
type checker struct {
	attempted, failed int
	problems          []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// cells counts p's cells, failing each that errored or whose result
// differs from the reference pass.
func (c *checker) cells(p, ref pass) {
	for i, name := range p.names {
		c.attempted++
		switch {
		case p.errors[i] != "":
			c.fail("%s: %s", name, p.errors[i])
		case i >= len(ref.results) || p.results[i] != ref.results[i]:
			c.fail("%s: result differs from the first pass", name)
		}
	}
}

// suiteReference checks a suite pass against quick.golden at seed 1 and
// against a Parallel=2 render at any other seed.
func (c *checker) suiteReference(run runner, p pass, seed int64, golden string) {
	c.attempted++
	var want string
	if seed == 1 {
		b, err := os.ReadFile(golden)
		if err != nil {
			c.fail("reading golden: %v", err)
			return
		}
		want = string(b)
	} else {
		rep, err := run(unit{Kind: "reference", Workload: "suite", Seed: seed})
		if err != nil {
			c.fail("suite reference render: %v", err)
			return
		}
		want = rep.Results[0]
	}
	if got := strings.Join(p.results, ""); got != want {
		c.fail("suite output differs from the reference (seed %d, %d vs %d bytes)", seed, len(got), len(want))
	}
}

// simDigest is FNV-1a over every cell's name and deterministic result.
func simDigest(p pass) string {
	h := fnv.New64a()
	for i, name := range p.names {
		fmt.Fprintf(h, "%s\x00%s\x00", name, p.results[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// outcome is one run's report.
type outcome struct {
	workload string
	seed     int64
	trace    bool
	digest   string
	passes   int
	check    checker
	metrics  map[string]summary
	units    map[string]string
	// speed is calibRef over the run's median calibration time, and
	// rawWall the unscaled wall_s.
	speed   float64
	rawWall summary
}

// scale multiplies a summary by a positive factor.
func scale(s summary, f float64) summary {
	return summary{s.Median * f, s.Q1 * f, s.Q3 * f, s.N}
}

func (o *outcome) set(name, unit string, s summary) {
	o.metrics[name] = s
	o.units[name] = unit
}

const minPasses = 3

// measure is the untraced run: passes until seconds have elapsed (at
// least minPasses), each pass one sample of every end-to-end metric.
func measure(run runner, w workloadDef, seed int64, seconds float64, quick bool, golden string) *outcome {
	o := &outcome{workload: w.name, seed: seed, metrics: map[string]summary{}, units: map[string]string{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var passes []pass
	for len(passes) < minPasses || time.Now().Before(deadline) {
		passes = append(passes, runPass(run, w, seed, false, quick))
	}
	ref := passes[0]
	o.passes = len(passes)
	o.digest = simDigest(ref)
	for _, p := range passes {
		o.check.cells(p, ref)
	}
	if w.name == "suite" {
		o.check.suiteReference(run, ref, seed, golden)
	}
	sample := func(f func(p pass) float64) summary {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, f(p))
		}
		return summarize(xs)
	}
	// Host times are scaled to the calibration kernel's reference speed
	// (calibrate.go); the raw medians are printed beside them.
	o.rawWall = sample(func(p pass) float64 { return p.wall.Seconds() })
	o.speed = calibRef.Seconds() / sample(func(p pass) float64 { return p.calib.Seconds() }).Median
	o.set("wall_s", "s", scale(o.rawWall, o.speed))
	o.set("work_per_s", "1/s", scale(sample(func(p pass) float64 { return float64(p.work) / p.wall.Seconds() }), 1/o.speed))
	o.set("setup_s", "s", scale(sample(func(p pass) float64 { return p.setup.Seconds() }), o.speed))
	o.set("max_rss_mb", "MB", sample(func(p pass) float64 { return float64(p.rssKB) / 1024 }))
	o.set("allocs_per_pass", "allocs", sample(func(p pass) float64 { return float64(p.mallocs) }))
	return o
}

// traced is the traced run: the workload's own pass untraced and
// traced (for the tracing overhead), a traced probe pass of every
// other workload, and every ladder. It writes the spans to traceOut.
func traced(run runner, w workloadDef, seed int64, quick bool, golden, traceOut string) (*outcome, error) {
	o := &outcome{workload: w.name, seed: seed, trace: true, metrics: map[string]summary{}, units: map[string]string{}}
	base := time.Now()
	plain := runPass(run, w, seed, false, quick)
	own := runPass(run, w, seed, true, quick)
	o.passes = 2
	o.digest = simDigest(plain)
	o.check.cells(plain, plain)
	o.check.cells(own, plain)

	layer := map[string]float64{}
	var tracks []traceTrack
	for _, x := range workloads {
		p := own
		if x.name != w.name {
			p = runPass(run, x, seed, true, quick)
			o.check.cells(p, p)
		}
		if x.name == "suite" {
			o.check.suiteReference(run, p, seed, golden)
		}
		deriveProbe(x.name, p)
		mergeLayer(layer, p.layer)
		tracks = append(tracks, p.tracks...)
	}
	names := make([]string, 0, len(ladders))
	for name := range ladders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.check.attempted++
		rep, err := run(unit{Kind: "ladder", Workload: name, Seed: seed, Quick: quick})
		if err != nil {
			o.check.fail("ladder %s: %v", name, err)
			continue
		}
		for i, rn := range rep.Names {
			if rep.Errors[i] != "" {
				o.check.fail("rung %s: %s", rn, rep.Errors[i])
			}
		}
		mergeLayer(layer, rep.Layer)
		tracks = append(tracks, traceTrack{Label: "ladder " + name, Spans: rep.Spans})
	}
	for _, a := range attributions {
		layer[a.name] = layer[a.rung] - layer[a.beneath]
	}
	layer["trace_overhead_frac"] = own.wall.Seconds()/plain.wall.Seconds() - 1
	layer["go.gc_cycles"] = float64(own.gcCycles)
	layer["go.gc_pause_ms"] = float64(own.gcPause) / 1e6

	for _, d := range perLayer {
		v, ok := layer[d.Name]
		if !ok {
			o.check.fail("per-layer metric %s was not measured", d.Name)
			continue
		}
		o.set(d.Name, d.Unit, summary{v, v, v, 1})
		delete(layer, d.Name)
	}
	for k := range layer {
		o.check.fail("undeclared per-layer metric %s", k)
	}
	return o, writeChromeTrace(traceOut, base, tracks)
}

// deriveProbe turns a traced pass's raw counts into its workload's
// per-layer metrics, replacing the intermediate counts.
func deriveProbe(name string, p pass) {
	l := p.layer
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	take := func(k string) float64 {
		v := l[k]
		delete(l, k)
		return v
	}
	switch name {
	case "suite":
		var expMS float64
		for k, v := range l {
			if strings.HasSuffix(k, "_ms") && k != "exp.job_wall_ms" {
				expMS += v
			}
		}
		l["exp.pool_busy_frac"] = ratio(take("exp.job_wall_ms"), expMS)
		return
	case "openloop":
		arrivals := take("openloop.arrivals")
		l["traffic.complete_frac"] = ratio(float64(p.work), arrivals)
		l["traffic.shed_frac"] = ratio(take("openloop.shed"), arrivals)
		batched, flushes := take("openloop.batched"), take("openloop.flushes")
		l["traffic.batch_collapse"] = ratio(batched, flushes)
	case "storm":
		l["neon.reattach_frac"] = ratio(l["neon.reattaches"], take("storm.attaches"))
	}
	l[name+".simreq"] = float64(p.work)
	l[name+".allocs_per_simreq"] = ratio(float64(p.mallocs), float64(p.work))
}

// record is one run as the -record file keeps it, for compare.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	SimDigest string  `json:"sim_digest"`
	Passes    int     `json:"passes"`
	Result    *result `json:"result"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) result() *result {
	r := &result{
		Correct:   o.check.failed == 0,
		Attempted: o.check.attempted,
		Failed:    o.check.failed,
		Metrics:   map[string]metric{},
	}
	for name, s := range o.metrics {
		r.Metrics[name] = metric{Value: s.Median, Unit: o.units[name]}
	}
	return r
}

// report prints the human-readable lines and then the result line.
func (o *outcome) report(out *bufio.Writer) error {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s  seed %d  %s  passes %d\n", o.workload, o.seed, mode, o.passes)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := o.metrics[d.Name]
		if !ok {
			continue
		}
		line := metricLine(d.Name, d.Unit, s.Median)
		if !o.trace {
			line += fmt.Sprintf("  (q1 %.6g  q3 %.6g  n %d)", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(out, line)
	}
	if o.speed != 0 {
		fmt.Fprintf(out, "host times scaled by %.4f (calibration); unscaled wall_s %.6g s (q1 %.6g  q3 %.6g)\n",
			o.speed, o.rawWall.Median, o.rawWall.Q1, o.rawWall.Q3)
	}
	frac := 0.0
	if o.check.attempted > 0 {
		frac = float64(o.check.failed) / float64(o.check.attempted)
	}
	fmt.Fprintln(out, metricLine("fail_frac", "ratio", frac)+fmt.Sprintf("  (%d of %d)", o.check.failed, o.check.attempted))
	for _, p := range o.check.problems {
		fmt.Fprintln(out, "FAIL", p)
	}
	fmt.Fprintln(out, "sim_digest", o.digest)
	line, err := json.Marshal(o.result())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return out.Flush()
}
