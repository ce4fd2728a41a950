package system

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tape"
	"repro/internal/workload"
)

// These tests are the package-API leg of the observability layer: the
// same counters the -metrics flag serializes are asserted as run
// invariants ("a selection cache hit performs zero optimizer steps"),
// and the Deterministic snapshot of a fixed sweep is pinned byte-stable
// — the golden contract behind committing -metrics output as a CI
// artifact.

// resetObsState puts the process-wide caches and the default registry
// into fresh-process state so counter values are a function of the work
// the calling test runs, then enables metrics for the test's duration.
func resetObsState(t *testing.T) {
	t.Helper()
	obsFreshProcess()
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.DisableMetrics()
		obsFreshProcess()
	})
}

// obsFreshProcess clears every cross-run cache a counter value could
// leak through.
func obsFreshProcess() {
	selections.Reset()
	profiles.Reset()
	tape.ResetCache()
	obs.Reset()
}

func counterValue(t *testing.T, s obs.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

func obsTestWorkload() workload.Workload {
	return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000})
}

var obsTestOptions = Options{
	Clusters: 3,
	DL:       cluster.DLOptions{Steps: 24, MaxWindows: 16},
}

// TestObsSelectionCacheHitZeroTrainSteps pins the cache contract as a
// counter equality: the first DL run trains (train_steps > 0, one
// selection miss), the identical second run must be served from the
// selection cache with zero additional optimizer steps.
func TestObsSelectionCacheHitZeroTrainSteps(t *testing.T) {
	resetObsState(t)
	opts := obsTestOptions
	opts.Kind = SDMBSMDL

	if _, err := Run(obsTestWorkload(), opts); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	first := obs.Default.Snapshot()
	trained := counterValue(t, first, "nn.train_steps")
	if trained == 0 {
		t.Fatal("first pass recorded no nn.train_steps; the DL selector did not train")
	}
	if misses := counterValue(t, first, "select.cache_misses"); misses != 1 {
		t.Fatalf("select.cache_misses = %d after one fresh run, want 1", misses)
	}

	if _, err := Run(obsTestWorkload(), opts); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	second := obs.Default.Snapshot()
	if got := counterValue(t, second, "nn.train_steps"); got != trained {
		t.Fatalf("selection cache hit retrained: nn.train_steps %d -> %d, want unchanged", trained, got)
	}
	if hits := counterValue(t, second, "select.cache_hits"); hits != 1 {
		t.Fatalf("select.cache_hits = %d after identical rerun, want 1", hits)
	}
	// The obs mirror must agree with the trainer's own step counter.
	if total := int64(nn.TrainSteps()); trained > total {
		t.Fatalf("obs nn.train_steps = %d exceeds nn.TrainSteps() = %d", trained, total)
	}
}

// TestObsDeterministicSnapshotByteStable is the golden test behind the
// -metrics artifact: the Deterministic() snapshot of a fixed sweep,
// rerun from fresh-process state at a different -jobs count, must
// serialize to identical bytes — counters, histogram buckets, and span
// counts included.
func TestObsDeterministicSnapshotByteStable(t *testing.T) {
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.DisableMetrics()
		obsFreshProcess()
	})
	kinds := []Kind{SDMBSM, SDMBSMDL}
	sweep := func(jobs int) []byte {
		obsFreshProcess()
		prev := parallel.SetJobs(jobs)
		_, err := Compare(obsTestWorkload(), obsTestOptions, kinds)
		parallel.SetJobs(prev)
		if err != nil {
			t.Fatalf("Compare at -jobs %d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := obs.Default.Snapshot().Deterministic().WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	one := sweep(1)
	two := sweep(4)
	if line, a, b := firstDiff(string(one), string(two)); line != 0 {
		t.Fatalf("deterministic snapshot differs between -jobs 1 and -jobs 4 at line %d:\n--- jobs 1\n%s\n--- jobs 4\n%s", line, a, b)
	}
	for _, name := range []string{`"system.runs"`, `"hbm.requests"`, `"nn.train_steps"`, `"schema": 5`} {
		if !bytes.Contains(one, []byte(name)) {
			t.Fatalf("snapshot missing %s:\n%s", name, one)
		}
	}
	// Every host-dependent counter or gauge — Host-marked or timed in
	// ns — must be absent from the deterministic bytes.
	var dropped []string
	full := obs.Default.Snapshot()
	for _, m := range append(full.Counters, full.Gauges...) {
		if m.Host || m.Unit == "ns" {
			dropped = append(dropped, m.Name)
		}
	}
	if len(dropped) == 0 {
		t.Fatal("no host-dependent counters or gauges registered; the check below would pass vacuously")
	}
	for _, name := range dropped {
		if bytes.Contains(one, []byte(strconv.Quote(name))) {
			t.Fatalf("host-dependent metric %q survived Deterministic():\n%s", name, one)
		}
	}
}

// updateSweepGolden rewrites the simulated-work golden files:
//
//	go test ./internal/system -run 'TestSweepGoldenSimulatedWork' -update
var updateSweepGolden = flag.Bool("update", false, "rewrite the testdata/*.golden simulated-work pins")

// TestSweepGoldenSimulatedWork pins the simulated work of a fixed sweep
// — bfs on the 4-unit accelerator, 32 clusters, 80 000 refs, all six
// configurations, as `sdambench -engine accel -cores 4 bfs` runs it —
// byte for byte: each cell's simulated makespan and reference count,
// then the Deterministic() metrics snapshot (engine refs, HBM requests,
// row hits and refreshes, DL train steps, crossbar compiles, cache hits
// and misses, span counts). Any change to simulated behaviour moves at
// least one line; host speed and -jobs move none, so the file is
// checked at -jobs 1 and -jobs 4. Host-time regressions are the
// benchmark harness's job (bench/README.md).
func TestSweepGoldenSimulatedWork(t *testing.T) {
	checkSweepGolden(t, "testdata/sweep_bfs_accel.golden",
		func() ([]Result, error) {
			return Compare(apps.NewBFS(apps.Options{MaxRefs: 80_000}),
				Options{Engine: cpu.AcceleratorConfig(4), Clusters: 32}, AllKinds)
		},
		func(r Result) string {
			return fmt.Sprintf("%s %s time_ns=%s refs=%d", r.Workload, r.Config,
				strconv.FormatFloat(r.Run.TimeNs, 'g', -1, 64), r.Run.References)
		})
}

// TestSweepGoldenSimulatedWorkWriteBack is the same pin for the
// write-back CPU path, which the accelerator sweep never reaches (it
// has no cache): hashjoin's random bucket updates evict dirty lines
// from the 64 KB 8-way L1, so each cell's external writes and cache
// hits depend on the cache's hit/victim choices and the MSHR window's
// stall times, reference by reference.
func TestSweepGoldenSimulatedWorkWriteBack(t *testing.T) {
	eng := cpu.CPUConfig(4)
	eng.WriteBack = true
	checkSweepGolden(t, "testdata/sweep_hashjoin_cpu_wb.golden",
		func() ([]Result, error) {
			return Compare(apps.NewHashJoin(apps.Options{MaxRefs: 40_000}),
				Options{Engine: eng}, []Kind{BSDM, BSHM, SDMBSM, SDMBSMML})
		},
		func(r Result) string {
			return fmt.Sprintf("%s %s time_ns=%s refs=%d external=%d writes=%d cache_hits=%d",
				r.Workload, r.Config, strconv.FormatFloat(r.Run.TimeNs, 'g', -1, 64),
				r.Run.References, r.Run.External, r.Run.Writes, r.Run.CacheHits)
		})
}

// TestCoRunGoldenSimulatedWork is the same pin for co-runs: abl-corun's
// one- and four-app stride mixes on the 4-unit accelerator with 4
// clusters per app, under all six configurations. Each cell's makespan,
// external references, installed CMT mappings and per-channel bytes
// are fixed, so a change to how the apps share one machine — the
// shared CMT's slot order, the per-app seeds, the interleaving of the
// apps' streams — moves a line.
func TestCoRunGoldenSimulatedWork(t *testing.T) {
	mixes := [][]int{{32}, {32, 128, 1024, 4096}}
	type corunCell struct {
		strides []int
		kind    Kind
	}
	var cells []corunCell
	for _, strides := range mixes {
		for _, k := range AllKinds {
			cells = append(cells, corunCell{strides, k})
		}
	}
	checkSweepGolden(t, "testdata/corun_strides_accel.golden",
		func() ([]Result, error) {
			return parallel.Map(cells, func(_ int, c corunCell) (Result, error) {
				ws := make([]workload.Workload, len(c.strides))
				for i, st := range c.strides {
					ws[i] = workload.NewStrideCopy([]int{st, st}, 3000, 256<<20)
				}
				return CoRun(ws, Options{Kind: c.kind, Engine: cpu.AcceleratorConfig(4), Clusters: 4})
			})
		},
		func(r Result) string {
			return fmt.Sprintf("%s %s time_ns=%s external=%d mappings=%d channel_bytes=%v",
				r.Workload, r.Config, strconv.FormatFloat(r.Run.TimeNs, 'g', -1, 64),
				r.Run.External, r.MappingsInstalled, r.HBM.ChannelBytes)
		})
}

// checkSweepGolden calls run at -jobs 1 and 4 from fresh-process state
// and requires each call's cell lines followed by the Deterministic()
// snapshot to equal the golden file byte for byte; -update rewrites the
// file from the -jobs 1 call.
func checkSweepGolden(t *testing.T, path string, run func() ([]Result, error), cell func(Result) string) {
	t.Helper()
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.DisableMetrics()
		obsFreshProcess()
	})
	for i, jobs := range []int{1, 4} {
		obsFreshProcess()
		prev := parallel.SetJobs(jobs)
		res, err := run()
		parallel.SetJobs(prev)
		if err != nil {
			t.Fatalf("-jobs %d: %v", jobs, err)
		}
		var buf bytes.Buffer
		for _, r := range res {
			fmt.Fprintln(&buf, cell(r))
		}
		if err := obs.Default.Snapshot().Deterministic().WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		got := buf.String()
		if *updateSweepGolden && i == 0 {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (regenerate with -update): %v", err)
		}
		if line, w, g := firstDiff(string(want), got); line != 0 {
			t.Errorf("-jobs %d: simulated work diverges from %s at line %d\n--- golden\n%s\n--- got\n%s",
				jobs, path, line, w, g)
		}
	}
}

// firstDiff reports the first line (1-based) at which got departs from
// want, with that line and up to three before it from each side as
// context; line is 0 when the texts are identical.
func firstDiff(want, got string) (line int, w, g string) {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	window := func(lines []string, i int) string {
		return strings.Join(lines[max(0, i-3):min(len(lines), i+1)], "\n")
	}
	for i := 0; i < len(wl) || i < len(gl); i++ {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			return i + 1, window(wl, i), window(gl, i)
		}
	}
	return 0, "", ""
}
