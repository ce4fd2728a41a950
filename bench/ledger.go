package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/f64"
)

// metricDef names one reported metric. better is "lower" or "higher";
// for the deterministic counts of the modelled machine the direction is
// nominal, since a speed-only change must leave them identical.
type metricDef struct {
	name, unit, better string
	// mean makes a run report the mean of its samples, not the median.
	mean bool
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off, one sample per fresh-process repetition.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "sim_refs_per_s", unit: "refs/s", better: "higher"},
	// A child's peak RSS depends on whether a GC cycle ends before its
	// allocation peak, so sweep-accel's samples fall in two clusters
	// (about 210-240 and 290-330 MB) and their median jumps between runs;
	// their mean does not.
	{name: "peak_rss_mb", unit: "MB", better: "lower", mean: true},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sim_speedup_geomean", unit: "x", better: "higher"},
}

// perLayer are the traced run's metrics. README.md names the end-to-end
// metric and workload each one should move.
var perLayer = []metricDef{
	{name: "workload.gen_ns_per_ref", unit: "ns", better: "lower"},
	{name: "tape.record_ns_per_ref", unit: "ns", better: "lower"},
	{name: "tape.replay_ns_per_ref", unit: "ns", better: "lower"},
	{name: "tape.seal_ns_per_ref", unit: "ns", better: "lower"},
	{name: "tape.bytes_per_ref", unit: "B", better: "lower"},
	{name: "cpu.run_ns_per_ref", unit: "ns", better: "lower"},
	{name: "cpu.run_sealed_ns_per_ref", unit: "ns", better: "lower"},
	{name: "cpu.self_ns_per_ref", unit: "ns", better: "lower"},
	{name: "vm.translate_ns_per_ref", unit: "ns", better: "lower"},
	{name: "memctrl.access_sdam_ns", unit: "ns", better: "lower"},
	{name: "memctrl.access_dm_ns", unit: "ns", better: "lower"},
	{name: "memctrl.access_hm_ns", unit: "ns", better: "lower"},
	{name: "memctrl.self_ns", unit: "ns", better: "lower"},
	{name: "hbm.access_ns", unit: "ns", better: "lower"},
	{name: "cache.access_ns", unit: "ns", better: "lower"},
	{name: "cache.hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.writebacks_per_kref", unit: "count", better: "lower"},
	{name: "profile.pass_ms", unit: "ms", better: "lower"},
	{name: "cluster.select_kmeans_ms", unit: "ms", better: "lower"},
	{name: "cluster.select_dl_ms", unit: "ms", better: "lower"},
	{name: "nn.train_ms", unit: "ms", better: "lower"},
	{name: "nn.train_steps", unit: "count", better: "lower"},
	{name: "nn.train_us_per_step", unit: "us", better: "lower"},
	{name: "system.profile_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "system.profile_cache_lookups", unit: "count", better: "lower"},
	{name: "system.select_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "system.select_cache_lookups", unit: "count", better: "lower"},
	{name: "tape.hit_ratio", unit: "ratio", better: "higher"},
	{name: "tape.lookups", unit: "count", better: "lower"},
	{name: "parallel.utilization", unit: "ratio", better: "higher"},
	{name: "system.cell_residual_frac", unit: "ratio", better: "lower"},
	{name: "engine.refs", unit: "count", better: "higher"},
	{name: "hbm.requests", unit: "count", better: "lower"},
	{name: "memctrl.compiles", unit: "count", better: "lower"},
	{name: "hbm.row_hit_rate", unit: "ratio", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// summary is a sample set's median, quartiles and extremes.
type summary struct {
	Median, Q1, Q3, Min, Max float64
	N                        int
}

// summarize computes quartiles the way Python's statistics.quantiles
// does by default (the "exclusive" method), so the spreads printed here
// match an external check of the same samples.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], Min: s[0], Max: s[0], N: 1}
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), Min: s[0], Max: s[n-1], N: n}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// resultSchema versions the result file written by -json.
const resultSchema = 1

// resultFile is what -json writes and -compare reads: the host it ran
// on, then every sample of every metric per workload.
type resultFile struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Tiny      bool             `json:"tiny,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// hostInfo fingerprints the machine: results from two fingerprints are
// not comparable.
type hostInfo struct {
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"nproc"`
	Jobs           int    `json:"jobs"`
	F64Accelerated bool   `json:"f64_accelerated"`
	CPUModel       string `json:"cpu_model"`
	GoVersion      string `json:"go_version"`
}

// thisHost fingerprints the running host. Children run with
// GOMAXPROCS = jobs = nproc.
func thisHost() hostInfo {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return hostInfo{
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Jobs:           runtime.NumCPU(),
		F64Accelerated: f64.Accelerated(),
		CPUModel:       model,
		GoVersion:      runtime.Version(),
	}
}

// workloadResult is one workload's run: its samples and its checks.
type workloadResult struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Digest is the sim_digest every repetition agreed on.
	Digest    string         `json:"sim_digest"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Errors    []string       `json:"errors,omitempty"`
	Metrics   []metricResult `json:"metrics"`
	// RefSeconds are the host-speed kernel's times, one before the
	// first child and one after each child, in run order.
	RefSeconds []float64 `json:"ref_s,omitempty"`
}

// metricResult holds every sample of one metric.
type metricResult struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Mean    bool      `json:"mean,omitempty"`
	Samples []float64 `json:"samples"`
}

// value is what the run reports for the metric: the median of its
// samples, or their mean.
func (m metricResult) value() float64 {
	if !m.Mean || len(m.Samples) == 0 {
		return summarize(m.Samples).Median
	}
	sum := 0.0
	for _, x := range m.Samples {
		sum += x
	}
	return sum / float64(len(m.Samples))
}

func (w workloadResult) metric(name string) (metricResult, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricResult{}, false
}

func writeResult(path string, r resultFile) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return r, fmt.Errorf("%s: result schema %d, this benchmark reads %d", path, r.Schema, resultSchema)
	}
	return r, nil
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWithin     = "worse within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a change's samples with the parent's. worse is the
// change's shift of the reported value in the metric's bad direction, as
// a share of the parent's value. When the parent's own spread is wider
// than the bound the shift cannot be told from noise: unresolved, unless
// every change sample beats every parent sample.
func judge(parent, change metricResult, bound float64) string {
	p, c := parent.value(), change.value()
	worse := ratio(c-p, math.Abs(p))
	if parent.Better == "higher" {
		worse = -worse
	}
	switch {
	case c == p:
		return verdictSame
	case summarize(parent.Samples).spread() > bound:
		if beatsAll(change.Samples, parent.Samples, parent.Better) {
			return verdictBetter
		}
		return verdictUnresolved
	case worse < 0:
		return verdictBetter
	case worse <= bound:
		return verdictWithin
	default:
		return verdictRegressed
	}
}

// beatsAll reports whether every sample of a is better than every
// sample of b.
func beatsAll(a, b []float64, better string) bool {
	sa, sb := summarize(a), summarize(b)
	if better == "higher" {
		return sa.Min > sb.Max
	}
	return sa.Max < sb.Min
}

// compareFiles prints, for every workload both files ran, one row per
// metric — medians, quartiles and a verdict against BENCHMARK.json's
// bound — and whether the sim_digests match. It refuses files from
// different hosts and fails when a metric regressed or a digest differs.
func compareFiles(parentPath, changePath string, bounds map[string]float64, out io.Writer) (bool, error) {
	parent, err := readResult(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResult(changePath)
	if err != nil {
		return false, err
	}
	if parent.Host != change.Host {
		return false, fmt.Errorf("results come from different hosts:\n  %+v\n  %+v", parent.Host, change.Host)
	}
	if parent.Seconds != change.Seconds || parent.Tiny != change.Tiny {
		return false, fmt.Errorf("results measured different run lengths or sizes (-seconds %d/%d, -tiny %t/%t)",
			parent.Seconds, change.Seconds, parent.Tiny, change.Tiny)
	}
	ok := true
	for _, pw := range parent.Workloads {
		var cw workloadResult
		found := false
		for _, w := range change.Workloads {
			if w.Name == pw.Name {
				cw, found = w, true
			}
		}
		if !found {
			continue
		}
		fmt.Fprintf(out, "\n%s (seeds %d / %d)\n", pw.Name, pw.Seed, cw.Seed)
		fmt.Fprintf(out, "  %-32s %-7s %12s %12s %12s %12s %8s  %s\n",
			"metric", "unit", "parent", "p q1-q3", "change", "c q1-q3", "bound", "verdict")
		for _, pm := range pw.Metrics {
			cm, found := cw.metric(pm.Name)
			if !found {
				continue
			}
			p, c := summarize(pm.Samples), summarize(cm.Samples)
			bound, hasBound := bounds[pm.Name]
			verdict, boundText := "-", "-"
			if hasBound {
				verdict, boundText = judge(pm, cm, bound), fmt.Sprintf("%.3f", bound)
				ok = ok && verdict != verdictRegressed
			}
			fmt.Fprintf(out, "  %-32s %-7s %12.5g %12s %12.5g %12s %8s  %s\n", pm.Name, pm.Unit,
				pm.value(), fmt.Sprintf("%.4g-%.4g", p.Q1, p.Q3), cm.value(), fmt.Sprintf("%.4g-%.4g", c.Q1, c.Q3), boundText, verdict)
		}
		digests := "identical"
		if pw.Digest != cw.Digest {
			digests, ok = "DIFFERENT", false
		}
		fmt.Fprintf(out, "  sim_digest %s / %s: %s\n", pw.Digest, cw.Digest, digests)
	}
	return ok, nil
}

// Noise calibration. Each workload runs once per seed 1..calibrationRuns
// (every run's value taken over fresh-process repetitions, as the
// regression check measures it), and each end-to-end metric's bound
// becomes boundFactor times the spread of those run values, floored and
// capped. With four times, the spread a calibration sees stays below a
// third of the bound through a noisier stretch of host than the one it
// measured in. sim_speedup_geomean is simulated: its spread is the spread
// across seeds, the same in every calibration.
const (
	calibrationRuns = 10
	boundFactor     = 4
	minBound        = 0.05
	maxBound        = 0.25
	setupFloorS     = 0.02 // setup_s is milliseconds: its bound covers at least 20 ms
)

// calibratedBound turns one metric's per-run values into its bound.
func calibratedBound(m metricDef, values []float64) float64 {
	s := summarize(values)
	b := max(minBound, boundFactor*s.spread())
	if m.name == "setup_s" {
		b = max(b, ratio(setupFloorS, s.Median))
	}
	return min(b, maxBound)
}

// benchmarkFile is BENCHMARK.json: the catalog above plus the calibrated
// bounds.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON is the checked-in file name, at the repository root.
const benchmarkJSON = "BENCHMARK.json"

// renderBenchmark builds BENCHMARK.json from the catalog and bounds.
func renderBenchmark(bounds map[string]float64) benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, benchMetric{m.name, m.unit, m.better, bounds[m.name]})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, benchLayer{m.name, m.unit, m.better})
	}
	return b
}

func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// bounds returns each end-to-end metric's bound.
func (b benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64, len(b.EndToEnd))
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
