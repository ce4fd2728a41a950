package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/sdam"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent process re-executes itself for every repetition, and under go
// test that is this binary, marked as a child by childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark with args and returns its output and the
// parsed last line.
func runBench(t *testing.T, args ...string) (string, resultLine) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-tiny", "-seconds", "0", "-out", t.TempDir()}, args...)
	if code := run(args, strings.NewReader(""), &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	text := strings.TrimSpace(out.String())
	var line resultLine
	if err := json.Unmarshal([]byte(text[strings.LastIndex(text, "\n")+1:]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, text)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("result not correct: %+v\n%s", line, text)
	}
	return text, line
}

// requireMetrics checks that every metric is in the table and in the
// result line, with its unit.
func requireMetrics(t *testing.T, text string, line resultLine, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +` + regexp.QuoteMeta(d.unit) + ` `).MatchString(text) {
			t.Errorf("table lacks %s [%s]", d.name, d.unit)
		}
		if v, ok := line.Metrics[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("result line has %s = %+v, want unit %s", d.name, v, d.unit)
		}
	}
}

func TestEveryWorkloadTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			text, line := runBench(t, "-workload", w.name)
			requireMetrics(t, text, line, endToEnd)
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	out := t.TempDir()
	text, line := runBench(t, "-workload", "sweep-accel", "-trace", "1", "-out", out)
	requireMetrics(t, text, line, perLayer)
	if v := line.Metrics["cpu.self_ns_per_ref"].Value; v < 0 {
		t.Errorf("cpu.self_ns_per_ref = %v, want >= 0", v)
	}
	if v := line.Metrics["system.cell_residual_frac"].Value; v > 0.10 {
		t.Errorf("system.cell_residual_frac = %v, want <= 0.10", v)
	}
	for _, name := range []string{"trace-sweep-accel.json", "trace-layers.json"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
			t.Errorf("%s: %d events, %v", name, len(events), err)
		}
	}
}

// TestDigestSeesResults checks that sim_digest follows every simulated
// field it covers; that repetitions agree on it is checked inside every
// run (TestEveryWorkloadTiny requires zero failures).
func TestDigestSeesResults(t *testing.T) {
	digest := func(r sdam.Result) uint64 {
		h := fnv.New64a()
		hashResult(h, r)
		return h.Sum64()
	}
	base := sdam.Result{Config: "BS+DM", Workload: "bfs"}
	base.Run.TimeNs = 1e6
	base.HBM.ChannelBytes = []uint64{64, 128}
	base.HBM.ChannelBusy = []float64{1.5, 3}
	if digest(base) != digest(base) {
		t.Fatal("digest is not a function of the result")
	}
	for name, edit := range map[string]func(*sdam.Result){
		"config":        func(r *sdam.Result) { r.Config = "BS+HM" },
		"time":          func(r *sdam.Result) { r.Run.TimeNs++ },
		"faults":        func(r *sdam.Result) { r.Run.Faults++ },
		"row hits":      func(r *sdam.Result) { r.HBM.RowHits++ },
		"last finish":   func(r *sdam.Result) { r.HBM.LastFinish = 7 },
		"channel bytes": func(r *sdam.Result) { r.HBM.ChannelBytes = []uint64{128, 64} },
		"channel busy":  func(r *sdam.Result) { r.HBM.ChannelBusy = []float64{1.5, 3.5} },
	} {
		r := base
		edit(&r)
		if digest(r) == digest(base) {
			t.Errorf("changing %s leaves the digest unchanged", name)
		}
	}
}

func TestCellResidual(t *testing.T) {
	cells := []obs.SpanStat{
		{Name: "cell:bfs/BS+DM", TotalNs: 60}, {Name: "cell:bfs/SDM+BSM", TotalNs: 40},
		{Name: "sim:bfs/BS+DM", TotalNs: 50}, {Name: "profile:bfs", TotalNs: 20},
		{Name: "select:SDM+BSM", TotalNs: 10}, {Name: "tape:bfs", TotalNs: 15},
	}
	if got := cellResidual(cells, nil); got != 0.2 {
		t.Errorf("cell residual = %v, want 0.2 (tape nests inside sim)", got)
	}
	experiments := []obs.SpanEvent{
		{Name: "experiment:fig15", StartNs: 0, DurNs: 100},
		{Name: "sim:bfs/BS+DM", StartNs: 10, DurNs: 40},
		{Name: "tape:bfs", StartNs: 40, DurNs: 30},
		{Name: "dl:train", StartNs: 80, DurNs: 10},
		{Name: "experiment:fig1", StartNs: 200, DurNs: 100}, // runs no phase
	}
	if got := cellResidual(nil, experiments); got != 0.3 {
		t.Errorf("experiment residual = %v, want 0.3", got)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	want := resultFile{
		Schema: resultSchema, Host: thisHost(), Seconds: 20, Trace: true,
		Workloads: []workloadResult{{
			Name: "sweep-accel", Seed: 7, Digest: "00ff", Attempted: 10, Failed: 1, Errors: []string{"boom"},
			Metrics: []metricResult{{Name: "wall_s", Unit: "s", Better: "lower", Samples: []float64{1.25, 1.5}}},
		}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSummarizeMatchesPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
		min, maxv float64
	}{
		{[]float64{1, 3}, 0.5, 2, 3.5, 1, 3},
		{[]float64{5, 1, 4}, 1, 4, 5, 1, 5},
		{[]float64{2, 7.5, 3.25, 9, 1}, 1.5, 3.25, 8.25, 1, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1, 10},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.Min != c.min || s.Max != c.maxv || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v", c.xs, s)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{10, 10.1, 10.2, 10.1, 10}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"same", tight, tight, "lower", verdictSame},
		{"faster", tight, []float64{9, 9.1, 9}, "lower", verdictBetter},
		{"slightly slower", tight, []float64{10.4, 10.5, 10.4}, "lower", verdictWithin},
		{"much slower", tight, []float64{12, 12.1, 12}, "lower", verdictRegressed},
		{"fewer refs/s", tight, []float64{8, 8.1, 8}, "higher", verdictRegressed},
		{"more refs/s", tight, []float64{12, 12.1, 12}, "higher", verdictBetter},
		{"noisy parent", []float64{8, 10, 12, 9, 11}, []float64{10.5, 10.4, 10.6}, "lower", verdictUnresolved},
		{"noisy parent, clear win", []float64{8, 10, 12, 9, 11}, []float64{5, 5.1, 5}, "lower", verdictBetter},
	} {
		parent := metricResult{Better: c.better, Samples: c.parent}
		change := metricResult{Better: c.better, Samples: c.change}
		if got := judge(parent, change, 0.05); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCalibratedBound(t *testing.T) {
	wall, _ := metricByName(endToEnd, "wall_s")
	setup, _ := metricByName(endToEnd, "setup_s")
	speedup, _ := metricByName(endToEnd, "sim_speedup_geomean")
	for _, c := range []struct {
		m       metricDef
		medians []float64
		want    float64
	}{
		{wall, []float64{10, 10, 10, 10, 10}, minBound},
		{wall, []float64{9.8, 10, 10.2, 10, 9.9, 10.1}, boundFactor * summarize([]float64{9.8, 10, 10.2, 10, 9.9, 10.1}).spread()},
		{wall, []float64{5, 10, 15, 10, 12}, maxBound},
		{setup, []float64{0.002, 0.002, 0.002}, maxBound},
		{setup, []float64{0.5, 0.5, 0.5}, minBound},
		{speedup, []float64{1.2, 1.2, 1.2}, minBound},
	} {
		if got := calibratedBound(c.m, c.medians); got != c.want {
			t.Errorf("calibratedBound(%s, %v) = %v, want %v", c.m.name, c.medians, got, c.want)
		}
	}
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host hostInfo, digest string, wall ...float64) string {
		path := filepath.Join(dir, name)
		r := resultFile{Schema: resultSchema, Host: host, Workloads: []workloadResult{{
			Name: "sweep-accel", Digest: digest,
			Metrics: []metricResult{{Name: "wall_s", Unit: "s", Better: "lower", Samples: wall}},
		}}}
		if err := writeResult(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := thisHost()
	parent := write("p.json", h, "aa", 10, 10.1, 10)
	bounds := map[string]float64{"wall_s": 0.05}
	var out bytes.Buffer
	if ok, err := compareFiles(parent, write("same.json", h, "aa", 10.2, 10.1, 10.2), bounds, &out); err != nil || !ok {
		t.Errorf("within bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, _ := compareFiles(parent, write("slow.json", h, "aa", 12, 12, 12), bounds, &out); ok {
		t.Errorf("a 20%% slowdown passed:\n%s", out.String())
	}
	if ok, _ := compareFiles(parent, write("digest.json", h, "bb", 10, 10, 10), bounds, &out); ok {
		t.Errorf("a changed digest passed:\n%s", out.String())
	}
	other := h
	other.NumCPU++
	if _, err := compareFiles(parent, write("host.json", other, "aa", 10, 10, 10), bounds, &out); err == nil {
		t.Error("results from different hosts were compared")
	}
}

// TestBenchmarkJSON checks the checked-in BENCHMARK.json against the
// catalog and against the limits a BENCHMARK.json must respect.
func TestBenchmarkJSON(t *testing.T) {
	b, err := readBenchmark(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	if want := renderBenchmark(b.bounds()); !reflect.DeepEqual(b, want) {
		t.Errorf("BENCHMARK.json is out of date with the catalog (go run . -calibrate rewrites it):\n got %+v\nwant %+v", b, want)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := b.bounds()["setup_s"]
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > maxBound || m.Bound > setup {
			t.Errorf("%s: bound %v must be in (0, %v] and at most setup_s's %v", m.Name, m.Bound, maxBound, setup)
		}
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
}
