package system

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/workload"
)

func strideWorkload(strides []int) *workload.StrideCopy {
	return workload.NewStrideCopy(strides, 8_000, 8<<20)
}

func TestKindStrings(t *testing.T) {
	want := []string{"BS+DM", "BS+BSM", "BS+HM", "SDM+BSM", "SDM+BSM+ML", "SDM+BSM+DL"}
	for i, k := range AllKinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q, want %q", i, k, want[i])
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
	if BSDM.NeedsProfiling() || BSHM.NeedsProfiling() {
		t.Fatal("baselines should not profile")
	}
	if !SDMBSMML.NeedsProfiling() {
		t.Fatal("ML config must profile")
	}
}

func TestBSDMRuns(t *testing.T) {
	res, err := Run(strideWorkload([]int{1, 1, 1, 1}), Options{Kind: BSDM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.External == 0 || res.HBM.Requests == 0 {
		t.Fatalf("no memory traffic: %+v", res.Run)
	}
	if res.Config != "BS+DM" {
		t.Fatalf("config = %q", res.Config)
	}
	if res.Profile != nil || res.Selection != nil {
		t.Fatal("baseline should not profile")
	}
}

// TestRunRejectsInvalidEngineConfig pins that an engine config without
// MSHRs fails the run with a config error naming the field, not a
// contained panic, in the evaluation pass (BS+DM) and in the profiling
// pass (SDM+BSM).
func TestRunRejectsInvalidEngineConfig(t *testing.T) {
	for _, k := range []Kind{BSDM, SDMBSM} {
		_, err := Run(strideWorkload([]int{1, 32}), Options{Kind: k, Engine: cpu.Config{Cores: 2}})
		if err == nil || !strings.Contains(err.Error(), "MSHRs") || strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: err = %v, want a config error naming MSHRs", k, err)
		}
	}
}

func TestSDAMBeatsDefaultOnBadStrides(t *testing.T) {
	// The headline mechanism check: a stride mix that funnels under the
	// default mapping runs much faster under per-variable SDAM.
	w := strideWorkload([]int{32, 32, 32, 32})
	dm, err := Run(w, Options{Kind: BSDM})
	if err != nil {
		t.Fatal(err)
	}
	sdam, err := Run(w, Options{Kind: SDMBSM})
	if err != nil {
		t.Fatal(err)
	}
	if s := sdam.SpeedupOver(dm); s < 2 {
		t.Fatalf("SDAM speedup %.2fx on stride-32, want >2x", s)
	}
	if sdam.MappingsInstalled < 2 { // default + app mapping
		t.Fatalf("mappings installed = %d", sdam.MappingsInstalled)
	}
}

func TestPerVariableBeatsPerAppOnMixedStrides(t *testing.T) {
	// Four different strides: one mapping per app cannot satisfy all
	// four; per-variable (ML) can (Fig 4 / Fig 11's shape).
	w := strideWorkload([]int{1, 8, 32, 128})
	per, err := Run(w, Options{Kind: SDMBSMML, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	app, err := Run(w, Options{Kind: SDMBSM})
	if err != nil {
		t.Fatal(err)
	}
	if s := per.SpeedupOver(app); s <= 1.0 {
		t.Fatalf("per-variable speedup over per-app = %.2fx, want >1x", s)
	}
	if per.Selection == nil || per.Selection.MappingsUsed() < 2 {
		t.Fatal("ML selection should use multiple mappings")
	}
}

func TestCompareOrderingOnMixedStrides(t *testing.T) {
	// BS+DM must lose to SDM+BSM+ML; BS+HM sits between: its limited
	// hash window covers strides 1 and 32 but not 1024/4096, which only
	// per-variable mappings recover. The accelerator engine (no cache)
	// keeps the runs memory-bound so the ordering is about mappings.
	w := workload.NewStrideCopy([]int{1, 32, 1024, 4096}, 8_000, 512<<20)
	results, err := Compare(w,
		Options{Clusters: 4, Engine: cpu.AcceleratorConfig(4)},
		[]Kind{BSDM, BSHM, SDMBSMML})
	if err != nil {
		t.Fatal(err)
	}
	dm, hm, ml := results[0], results[1], results[2]
	if hm.SpeedupOver(dm) <= 1 {
		t.Fatalf("HM speedup %.2f, want >1", hm.SpeedupOver(dm))
	}
	if ml.SpeedupOver(dm) <= hm.SpeedupOver(dm) {
		t.Fatalf("ML (%.2fx) should beat HM (%.2fx)", ml.SpeedupOver(dm), hm.SpeedupOver(dm))
	}
}

func TestAcceleratorGainsExceedCPU(t *testing.T) {
	// §7.4: accelerators (deeper MLP, no cache) benefit more from SDAM.
	w := strideWorkload([]int{16, 32, 64, 128})
	cpuBase, err := Run(w, Options{Kind: BSDM})
	if err != nil {
		t.Fatal(err)
	}
	cpuSDAM, err := Run(w, Options{Kind: SDMBSMML, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc := Options{Kind: BSDM, Engine: cpu.AcceleratorConfig(4)}
	accBase, err := Run(w, acc)
	if err != nil {
		t.Fatal(err)
	}
	acc.Kind = SDMBSMML
	acc.Clusters = 4
	accSDAM, err := Run(w, acc)
	if err != nil {
		t.Fatal(err)
	}
	cpuGain := cpuSDAM.SpeedupOver(cpuBase)
	accGain := accSDAM.SpeedupOver(accBase)
	if accGain <= cpuGain {
		t.Fatalf("accelerator gain %.2fx not above CPU gain %.2fx", accGain, cpuGain)
	}
}

func TestDLConfigRunsOnRealKernel(t *testing.T) {
	w := apps.NewHashJoin(apps.Options{MaxRefs: 30_000})
	res, err := Run(w, Options{Kind: SDMBSMDL, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection == nil || res.Selection.Method != "DL-KMeans" {
		t.Fatalf("selection = %+v", res.Selection)
	}
	if res.ProfilingTime <= 0 {
		t.Fatal("profiling time missing")
	}
}

func TestHBMScaleSlowsRuns(t *testing.T) {
	w := strideWorkload([]int{1, 1, 1, 1})
	fast, err := Run(w, Options{Kind: BSDM, HBMScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(w, Options{Kind: BSDM, HBMScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Run.TimeNs <= fast.Run.TimeNs {
		t.Fatal("quarter-frequency HBM did not slow the run")
	}
}

func TestProfileAndEvalUseDifferentSeeds(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ProfileSeed == o.EvalSeed {
		t.Fatal("default seeds identical — cross-validation broken")
	}
}

func TestCrossValidationInputsStillGain(t *testing.T) {
	// §7.4: profiling on one input and evaluating on another must not
	// break the selection — mappings are a function of the data
	// structures, not the input values.
	w := strideWorkload([]int{32, 32, 32, 32})
	base, err := Run(w, Options{Kind: BSDM, ProfileSeed: 11, EvalSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, Options{Kind: SDMBSMML, Clusters: 4, ProfileSeed: 11, EvalSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.SpeedupOver(base); s < 2 {
		t.Fatalf("cross-validated SDAM speedup %.2fx, want >2x", s)
	}
}

func TestAllConfigsRunAllKindsOnRealKernel(t *testing.T) {
	// Every configuration must complete on a real kernel and leave the
	// machine consistent (Run performs the invariant checks internally).
	w := apps.NewPageRank(apps.Options{MaxRefs: 8_000})
	for _, k := range AllKinds {
		res, err := Run(w, Options{Kind: k, Clusters: 4})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Run.External == 0 {
			t.Fatalf("%s: no memory traffic", k)
		}
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	// The simulator must be bit-for-bit reproducible: identical options
	// give identical results, including through profiling, ML selection,
	// and the full machine. This is the invariant that makes every
	// number in EXPERIMENTS.md reproducible.
	for _, k := range []Kind{BSDM, BSHM, SDMBSMML} {
		run := func() Result {
			w := apps.NewHashJoin(apps.Options{MaxRefs: 10_000})
			res, err := Run(w, Options{Kind: k, Clusters: 4})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.Run.TimeNs != b.Run.TimeNs || a.Run.External != b.Run.External ||
			a.HBM.RowHits != b.HBM.RowHits || a.MappingsInstalled != b.MappingsInstalled {
			t.Fatalf("%s: nondeterministic: %+v vs %+v", k, a.Run, b.Run)
		}
	}
}

func TestDLSelectionIsDeterministic(t *testing.T) {
	run := func() int {
		w := workload.NewStrideCopy([]int{1, 32, 1, 32}, 4_000, 8<<20)
		res, err := Run(w, Options{Kind: SDMBSMDL, Clusters: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Selection.MappingsUsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("DL selection nondeterministic: %d vs %d mappings", a, b)
	}
}
