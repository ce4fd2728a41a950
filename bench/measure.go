package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/wallclock"
)

// Repetition counts. Every repetition is a fresh process, so it pays the
// cold tape, profile and selection caches a user's sdamsim or sdambench
// invocation pays. Repetitions of an untraced run continue while the
// next one fits in the run's time budget, with at least minReps of them;
// set-up is sampled setupSamples times, by extra children that stop
// after set-up when the repetitions alone give fewer.
const (
	minReps      = 2
	setupSamples = 9
)

// childRun is what the parent measured of one child.
type childRun struct {
	setup, wall time.Duration
	rssMB       float64
	res         childResult
}

// spawn runs one child of this binary for workload name (or the layer
// probes) with GOMAXPROCS = procs, which also sets the simulator's job
// count. setup is measured from spawning to the child's ready line, wall
// from there to the child's exit; with run false the child stops after
// set-up.
func spawn(o options, name string, traced bool, procs int, run bool) (childRun, error) {
	var c childRun
	exe, err := os.Executable()
	if err != nil {
		return c, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.out}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return c, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := wallclock.Now()
	if err := cmd.Start(); err != nil {
		return c, err
	}
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 64<<20)
	if !lines.Scan() || lines.Text() != readyLine {
		stdin.Close()
		return c, fmt.Errorf("child %s stopped before its set-up finished: %v", name, cmd.Wait())
	}
	ready := wallclock.Now()
	c.setup = ready.Sub(start)
	if run {
		_, err = io.WriteString(stdin, "run\n")
	}
	stdin.Close()
	var last []byte
	for lines.Scan() {
		last = append(last[:0], lines.Bytes()...)
	}
	waitErr := cmd.Wait()
	c.wall = wallclock.Since(ready)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	switch {
	case err != nil:
		return c, fmt.Errorf("starting child %s: %w", name, err)
	case waitErr != nil:
		return c, fmt.Errorf("child %s: %w", name, waitErr)
	case !run:
		return c, nil
	}
	if err := json.Unmarshal(last, &c.res); err != nil {
		return c, fmt.Errorf("child %s printed no result: %w", name, err)
	}
	return c, nil
}

// nproc is the host's CPU count: children run one at a time, each with
// GOMAXPROCS and the simulator's job count equal to it.
var nproc = runtime.NumCPU()

// samples collects metric samples in catalog order.
type samples struct {
	defs []metricDef
	vals map[string][]float64
}

func newSamples(defs []metricDef) *samples {
	return &samples{defs: defs, vals: make(map[string][]float64)}
}

func (s *samples) add(name string, v float64) { s.vals[name] = append(s.vals[name], v) }

// addAll adds the catalogued metrics found in m.
func (s *samples) addAll(m map[string]float64) {
	for _, d := range s.defs {
		if v, ok := m[d.name]; ok {
			s.add(d.name, v)
		}
	}
}

func (s *samples) results() []metricResult {
	out := make([]metricResult, 0, len(s.defs))
	for _, d := range s.defs {
		if v, ok := s.vals[d.name]; ok {
			out = append(out, metricResult{Name: d.name, Unit: d.unit, Better: d.better, Mean: d.mean, Samples: v})
		}
	}
	return out
}

// tally adds a child's attempts, failures and errors, or one failed
// attempt when the child itself failed, and reports whether it ran.
func (wr *workloadResult) tally(r childResult, err error) bool {
	if err != nil {
		r = childResult{Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	wr.Errors = append(wr.Errors, r.Errors...)
	return err == nil
}

// account tallies one repetition of the workload and checks that its
// sim_digest matches the first repetition's.
func (wr *workloadResult) account(c childRun, err error) bool {
	if !wr.tally(c.res, err) {
		return false
	}
	if wr.Digest == "" {
		wr.Digest = c.res.Digest
	} else if c.res.Digest != wr.Digest {
		wr.Failed++
		wr.Errors = append(wr.Errors, fmt.Sprintf("sim_digest %s differs from the first repetition's %s", c.res.Digest, wr.Digest))
	}
	return true
}

// measure runs one workload's end-to-end measurement: fresh-process
// repetitions for o.seconds, each a sample of every end-to-end metric.
// Host times are scaled to the reference speed by the host-speed kernel
// run before and after each child (hostspeed.go).
func measure(o options, spec workloadSpec) workloadResult {
	wr := workloadResult{Name: spec.name, Seed: o.seed}
	s := newSamples(endToEnd)
	ref := newHostRef(nproc, o.tiny)
	before := ref.measure()
	wr.RefSeconds = append(wr.RefSeconds, before)
	// next spawns one child and measures the kernel after it, returning
	// the child and the scale of its host times.
	next := func(run bool) (childRun, float64, error) {
		c, err := spawn(o, spec.name, false, nproc, run)
		after := ref.measure()
		wr.RefSeconds = append(wr.RefSeconds, after)
		f := ref.scale(before, after)
		before = after
		return c, f, err
	}
	start := wallclock.Now()
	var reps []float64 // host seconds per repetition, set-up and kernel included
	for len(reps) < minReps || wallclock.Since(start).Seconds()+summarize(reps).Median <= float64(o.seconds) {
		repStart := wallclock.Now()
		c, f, err := next(true)
		reps = append(reps, wallclock.Since(repStart).Seconds())
		if !wr.account(c, err) {
			continue
		}
		s.add("wall_s", c.wall.Seconds()*f)
		s.add("setup_s", c.setup.Seconds()*f)
		s.add("peak_rss_mb", c.rssMB)
		s.add("sim_refs_per_s", float64(c.res.Refs)/(c.wall.Seconds()*f))
		s.add("sim_speedup_geomean", c.res.Speedup)
	}
	for len(s.vals["setup_s"]) < setupSamples {
		c, f, err := next(false)
		if !wr.tally(childResult{}, err) {
			break
		}
		s.add("setup_s", c.setup.Seconds()*f)
	}
	wr.Metrics = s.results()
	return wr
}

// measureTraced is the traced run: pairs of an untraced and a traced
// repetition of the workload, while they fit in half of o.seconds (a
// traced child keeps span events and writes trace-<workload>.json), then
// the layer probes in their own child, then sweep-accel at its tiny size
// under one job and under nproc jobs. Every traced repetition must
// reproduce the untraced sim_digest, and the two job counts must agree.
// trace.overhead_frac is the median over the pairs.
func measureTraced(o options, spec workloadSpec) workloadResult {
	wr := workloadResult{Name: spec.name, Seed: o.seed}
	s := newSamples(perLayer)
	start := wallclock.Now()
	var pairs []float64 // host seconds per pair
	for len(pairs) < 1 || wallclock.Since(start).Seconds()+summarize(pairs).Median <= float64(o.seconds)/2 {
		base, err := spawn(o, spec.name, false, nproc, true)
		baseOK := wr.account(base, err)
		traced, err := spawn(o, spec.name, true, nproc, true)
		pairs = append(pairs, (base.setup + base.wall + traced.setup + traced.wall).Seconds())
		if !wr.account(traced, err) {
			continue
		}
		s.addAll(traced.res.Layers)
		if baseOK {
			s.add("trace.overhead_frac", traced.wall.Seconds()/base.wall.Seconds()-1)
		}
	}
	layers, err := spawn(o, layersChild, false, nproc, true)
	if wr.tally(layers.res, err) {
		s.addAll(layers.res.Layers)
	}
	small := o
	small.tiny = true
	var jobDigests []string
	for _, procs := range []int{1, nproc} {
		c, err := spawn(small, "sweep-accel", false, procs, true)
		if wr.tally(c.res, err) {
			jobDigests = append(jobDigests, c.res.Digest)
		}
	}
	wr.Attempted++
	if len(jobDigests) != 2 || jobDigests[0] != jobDigests[1] {
		wr.Failed++
		wr.Errors = append(wr.Errors, fmt.Sprintf("tiny sweep-accel sim_digest differs between 1 and %d jobs: %v", nproc, jobDigests))
	}
	wr.Metrics = s.results()
	return wr
}

// printWorkload writes one workload's table: every metric with its unit,
// reported value, median, quartiles, maximum and sample count, then the
// checks.
func printWorkload(out io.Writer, wr workloadResult, spec workloadSpec) {
	fmt.Fprintf(out, "\n%s (seed %d)\n", wr.Name, wr.Seed)
	fmt.Fprintf(out, "  %-32s %-7s %12s %12s %12s %12s %12s %3s\n", "metric", "unit", "value", "median", "q1", "q3", "max", "n")
	for _, m := range wr.Metrics {
		sm := summarize(m.Samples)
		fmt.Fprintf(out, "  %-32s %-7s %12.5g %12.5g %12.5g %12.5g %12.5g %3d\n", m.Name, m.Unit, m.value(), sm.Median, sm.Q1, sm.Q3, sm.Max, sm.N)
	}
	if m, ok := wr.metric("sim_speedup_geomean"); ok {
		got, p := summarize(m.Samples).Median, spec.paper
		diff := 0.0
		if got < p.low {
			diff = got - p.low
		} else if got > p.high {
			diff = got - p.high
		}
		paper := fmt.Sprintf("%.2fx", p.low)
		if p.high != p.low {
			paper = fmt.Sprintf("%.2f-%.2fx", p.low, p.high)
		}
		fmt.Fprintf(out, "  sim_speedup_geomean %.3fx vs paper %s %s: difference %+.2fx; beyond the shape checks the model is unvalidated\n",
			got, p.figure, paper, diff)
	}
	if len(wr.RefSeconds) > 0 {
		fmt.Fprintf(out, "  host-speed kernel %.4g s (median of %d; host times scaled to its %.3g s)\n",
			summarize(wr.RefSeconds).Median, len(wr.RefSeconds), refNominal)
	}
	fmt.Fprintf(out, "  sim_digest %s   failed_frac %.4g (%d failed of %d attempted)\n",
		wr.Digest, ratio(float64(wr.Failed), float64(wr.Attempted)), wr.Failed, wr.Attempted)
	for _, e := range wr.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}

// resultLine is the JSON object the benchmark prints as its last line:
// each metric's reported value, keyed by name (by workload/name when several
// workloads ran).
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(r resultFile) resultLine {
	line := resultLine{Correct: true, Metrics: make(map[string]metricValue)}
	want := endToEnd
	if r.Trace {
		want = perLayer
	}
	for _, w := range r.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, d := range want {
			key := d.name
			if len(r.Workloads) > 1 {
				key = w.Name + "/" + d.name
			}
			m, ok := w.metric(d.name)
			if !ok {
				line.Correct = false
				continue
			}
			line.Metrics[key] = metricValue{m.value(), m.Unit}
		}
	}
	line.Correct = line.Correct && line.Failed == 0
	return line
}
