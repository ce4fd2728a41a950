package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/wallclock"
	"repro/sdam"
)

// readyLine is what a child prints once its set-up is done. The parent
// answers with one line on the child's stdin to start the repetition, or
// closes stdin to end a set-up-only child.
const readyLine = "ready"

// childResult is the last line a child prints: what one repetition did
// and how it checked out.
type childResult struct {
	// Refs counts the references the evaluation passes simulated
	// (the engine.refs counter).
	Refs int64 `json:"refs"`
	// Attempted counts cells and shape checks; Failed counts the cell
	// errors and failed checks among them.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digest is the FNV-1a sim_digest over every cell's simulated
	// outcome, in cell order.
	Digest  string  `json:"digest"`
	Speedup float64 `json:"speedup"`
	// Layers holds per-layer metrics: the program's own counters and
	// spans in a traced repetition, the layer probes in a layers child.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// fail records n failures caused by err.
func (r *childResult) fail(n int, err error) {
	r.Failed += n
	r.Errors = append(r.Errors, err.Error())
}

// runChild is one repetition in a fresh process: set up, report ready,
// wait for the parent's go-ahead, run, and print the result. Metrics are
// on in every child (engine.refs is read from them); a traced child also
// keeps span events and writes them as a Perfetto trace.
func runChild(o options, stdin io.Reader, stdout io.Writer) error {
	sdam.EnableMetrics()
	if o.trace {
		sdam.EnableTracing()
	}
	var job func() childResult
	var err error
	if o.child == layersChild {
		job, err = buildLayers(o.seed, o.tiny, o.out)
	} else if spec, ok := findWorkload(o.child); ok {
		job, err = spec.build(o.seed, o.tiny)
	} else {
		err = fmt.Errorf("unknown workload %q", o.child)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, readyLine)
	if !bufio.NewScanner(stdin).Scan() {
		return nil
	}
	start := wallclock.Now()
	res := job()
	wall := wallclock.Since(start)
	snap := sdam.Metrics()
	res.Refs = counter(snap, "engine.refs")
	if o.trace {
		path := filepath.Join(o.out, "trace-"+o.child+".json")
		if err := writeFile(path, sdam.WriteTrace); err != nil {
			return err
		}
		res.Layers = programLayers(snap, obs.Default.Events(), wall)
	}
	return json.NewEncoder(stdout).Encode(res)
}

// writeFile creates path (and its directory) and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// counter reads a counter or gauge from a snapshot; an unregistered name
// reads 0.
func counter(s obs.Snapshot, name string) int64 {
	for _, set := range [][]obs.MetricValue{s.Counters, s.Gauges} {
		for _, m := range set {
			if m.Name == name {
				return m.Value
			}
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// programLayers derives the per-layer metrics a traced repetition reads
// from the program's own obs counters and spans: cache effectiveness with
// its base counts, worker utilization, the uncovered share of cell time,
// and the deterministic counts of the modelled machine.
func programLayers(s obs.Snapshot, events []obs.SpanEvent, wall time.Duration) map[string]float64 {
	c := func(name string) float64 { return float64(counter(s, name)) }
	profLookups := c("profile.cache_hits") + c("profile.cache_misses")
	selLookups := c("select.cache_hits") + c("select.cache_misses")
	tapeLookups := c("tape.builds") + c("tape.hits") + c("tape.live")
	return map[string]float64{
		"system.profile_cache_hit_ratio": ratio(c("profile.cache_hits"), profLookups),
		"system.profile_cache_lookups":   profLookups,
		"system.select_cache_hit_ratio":  ratio(c("select.cache_hits"), selLookups),
		"system.select_cache_lookups":    selLookups,
		"tape.hit_ratio":                 ratio(c("tape.hits"), tapeLookups),
		"tape.lookups":                   tapeLookups,
		"parallel.utilization":           ratio(c("parallel.busy_ns"), c("parallel.width")*float64(wall.Nanoseconds())),
		"system.cell_residual_frac":      cellResidual(s.Spans, events),
		"engine.refs":                    c("engine.refs"),
		"hbm.requests":                   c("hbm.requests"),
		"memctrl.compiles":               c("memctrl.compiles"),
		"hbm.row_hit_rate":               ratio(c("hbm.row_hits"), c("hbm.row_hits")+c("hbm.row_misses")),
	}
}

// Phase spans: the simulator's own work inside a cell or an experiment.
// A cell's goroutine runs its top-level phases one after another; tape
// and DL-stage spans nest inside them, or run on their own in experiments
// that call the selectors directly.
var (
	topPhases = []string{"sim:", "profile:", "select:", "corun:"}
	allPhases = append([]string{"tape:", "dl:"}, topPhases...)
)

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// cellResidual is the share of cell time no phase span covers: waits on
// another cell's profile, selection or tape, machine boot, and the
// integrity checks. With cell spans present it is a difference of totals,
// since a cell's top-level phases do not overlap. paper-all's experiments
// open no cell spans; there each experiment span that runs any phase is a
// unit, and the covered time is the union of every phase span inside it.
func cellResidual(spans []obs.SpanStat, events []obs.SpanEvent) float64 {
	var cells, covered float64
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "cell:"):
			cells += float64(s.TotalNs)
		case hasPrefix(s.Name, topPhases):
			covered += float64(s.TotalNs)
		}
	}
	if cells > 0 {
		return (cells - covered) / cells
	}
	var units, uncovered float64
	for _, u := range events {
		if !strings.HasPrefix(u.Name, "experiment:") {
			continue
		}
		covered := unionWithin(events, u.StartNs, u.StartNs+u.DurNs)
		if covered == 0 {
			continue // a device-level experiment: it runs no simulator phase at all
		}
		units += float64(u.DurNs)
		uncovered += float64(u.DurNs - covered)
	}
	return ratio(uncovered, units)
}

// unionWithin returns how much of [lo, hi) the phase span events cover.
func unionWithin(events []obs.SpanEvent, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, e := range events {
		a, b := max(e.StartNs, lo), min(e.StartNs+e.DurNs, hi)
		if a < b && hasPrefix(e.Name, allPhases) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
