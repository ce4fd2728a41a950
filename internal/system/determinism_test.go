package system

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// normalizeWallClock zeroes the only non-deterministic fields in a
// Result: the wall-clock selection timings. Everything else — simulated
// time, HBM stats, profiles, selected mappings — must be bit-identical
// across serial and parallel execution.
func normalizeWallClock(rs []Result) {
	for i := range rs {
		rs[i].ProfilingTime = 0
		if rs[i].Selection != nil {
			s := *rs[i].Selection
			s.ProfilingTime = 0
			rs[i].Selection = &s
		}
	}
}

// TestCompareDeterministicUnderParallelism is the regression test for
// the parallel sweep harness: Compare with jobs=1 (the serial reference
// path in parallel.MapN) and with a parallel worker pool must produce
// identical Results for identical seeds, in the same order.
func TestCompareDeterministicUnderParallelism(t *testing.T) {
	kinds := []Kind{BSDM, BSBSM, BSHM, SDMBSM, SDMBSMML}
	workloads := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"stridecopy", func() workload.Workload { return strideWorkload([]int{1, 32, 1024, 4096}) }},
		{"kmeans", func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000}) }},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			opts := Options{Clusters: 4}

			prev := parallel.SetJobs(1)
			serial, err := Compare(wl.mk(), opts, kinds)
			parallel.SetJobs(prev)
			if err != nil {
				t.Fatalf("serial Compare: %v", err)
			}

			prev = parallel.SetJobs(4)
			par, err := Compare(wl.mk(), opts, kinds)
			parallel.SetJobs(prev)
			if err != nil {
				t.Fatalf("parallel Compare: %v", err)
			}

			if len(serial) != len(par) {
				t.Fatalf("result count: serial %d, parallel %d", len(serial), len(par))
			}
			normalizeWallClock(serial)
			normalizeWallClock(par)
			for i := range serial {
				if serial[i].Config != kinds[i].String() {
					t.Errorf("result %d out of order: %s, want %s", i, serial[i].Config, kinds[i])
				}
				if !reflect.DeepEqual(serial[i], par[i]) {
					t.Errorf("%s: parallel result diverges from serial\nserial:   %+v\nparallel: %+v",
						kinds[i], summarize(serial[i]), summarize(par[i]))
				}
			}
		})
	}
}

// TestAblationEntryPointsDeterministicUnderParallelism extends the
// serial-vs-parallel bit-identity guarantee from Compare to the other
// simulation entry points the ablation experiments drive: the co-run
// scenario, the do-no-harm guard toggle, MSHR variants, and
// cluster-budget variants. Each case rebuilds its workloads per run (a
// shared instance would be mutated by Setup) and must produce
// DeepEqual results at jobs=1 and jobs=4 after wall-clock
// normalization.
func TestAblationEntryPointsDeterministicUnderParallelism(t *testing.T) {
	kmeans := func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 4_000}) }
	cases := []struct {
		name string
		do   func() ([]Result, error)
	}{
		{"corun", func() ([]Result, error) {
			ws := []workload.Workload{
				strideWorkload([]int{1, 32}),
				kmeans(),
			}
			r, err := CoRun(ws, Options{Kind: SDMBSM, Clusters: 2})
			return []Result{r}, err
		}},
		{"guard-disabled", func() ([]Result, error) {
			r, err := Run(strideWorkload([]int{1, 64}), Options{Kind: SDMBSM, Clusters: 2, NoGuard: true})
			return []Result{r}, err
		}},
		{"mshr-variants", func() ([]Result, error) {
			var out []Result
			for _, mshrs := range []int{2, 8} {
				eng := cpu.AcceleratorConfig(2)
				eng.MSHRs = mshrs
				r, err := Run(kmeans(), Options{Kind: SDMBSMML, Clusters: 2, Engine: eng})
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"cluster-budget", func() ([]Result, error) {
			var out []Result
			for _, k := range []int{1, 4} {
				r, err := Run(kmeans(), Options{Kind: SDMBSMML, Clusters: k})
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prev := parallel.SetJobs(1)
			serial, err := c.do()
			parallel.SetJobs(prev)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}

			prev = parallel.SetJobs(4)
			par, err := c.do()
			parallel.SetJobs(prev)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}

			normalizeWallClock(serial)
			normalizeWallClock(par)
			if len(serial) != len(par) {
				t.Fatalf("result count: serial %d, parallel %d", len(serial), len(par))
			}
			for i := range serial {
				if !reflect.DeepEqual(serial[i], par[i]) {
					t.Errorf("result %d: parallel diverges from serial\nserial:   %+v\nparallel: %+v",
						i, summarize(serial[i]), summarize(par[i]))
				}
			}
		})
	}
}

// summarize keeps divergence dumps readable.
func summarize(r Result) map[string]any {
	return map[string]any{
		"TimeNs":   r.Run.TimeNs,
		"External": r.Run.External,
		"HBM":      r.HBM,
		"Mappings": r.MappingsInstalled,
	}
}

// failOnProfile is a workload whose setup succeeds on the baseline
// machines but fails when the run is a profiling pass consumer — it
// fails on every Setup after the first per instance. Cloned per
// configuration, that means: BSDM and BSHM run one setup (succeed);
// kinds that profile run two setups (profiling + evaluation) and fail
// on the second.
type failOnProfile struct {
	inner  workload.Workload
	setups int
}

func (f *failOnProfile) Name() string { return "failer" }
func (f *failOnProfile) Clone() workload.Workload {
	return &failOnProfile{inner: workload.Clone(f.inner)}
}
func (f *failOnProfile) Setup(env *workload.Env) error {
	f.setups++
	if f.setups > 1 {
		return errors.New("synthetic second-setup failure")
	}
	return f.inner.Setup(env)
}
func (f *failOnProfile) Streams(seed int64) []cpu.Stream { return f.inner.Streams(seed) }

// TestCompareNamesFailingConfig exercises the error contract: every
// failing configuration is reported by name, and the surviving
// configurations' results still come back at their stable positions.
func TestCompareNamesFailingConfig(t *testing.T) {
	w := &failOnProfile{inner: strideWorkload([]int{1, 1, 1, 1})}
	kinds := []Kind{BSDM, SDMBSM, BSHM}
	res, err := Compare(w, Options{}, kinds)
	if err == nil {
		t.Fatal("want error from the profiling configuration")
	}
	if !strings.Contains(err.Error(), "SDM+BSM") || !strings.Contains(err.Error(), "failer") {
		t.Fatalf("error does not name the failing config and workload: %v", err)
	}
	if strings.Contains(err.Error(), "BS+DM on") || strings.Contains(err.Error(), "BS+HM on") {
		t.Fatalf("error blames a configuration that succeeded: %v", err)
	}
	if len(res) != len(kinds) {
		t.Fatalf("partial results: %d, want %d", len(res), len(kinds))
	}
	if res[0].Run.External == 0 || res[2].Run.External == 0 {
		t.Fatal("surviving configurations lost their results")
	}
	if res[0].Config != "BS+DM" || res[2].Config != "BS+HM" {
		t.Fatalf("stable order violated: %s, %s", res[0].Config, res[2].Config)
	}
}

// panicky panics in Streams for one seed, so a test can fail exactly the
// profiling pass (ProfileSeed) or the evaluation pass (EvalSeed). The
// seed is shared with clones through the pointer.
type panicky struct {
	workload.Workload
	seed *int64
}

func (p *panicky) TapeKey() string { return p.Workload.(workload.TapeKeyer).TapeKey() }
func (p *panicky) Clone() workload.Workload {
	return &panicky{workload.Clone(p.Workload), p.seed}
}
func (p *panicky) Streams(seed int64) []cpu.Stream {
	if seed == *p.seed {
		panic("synthetic stream failure")
	}
	return p.Workload.Streams(seed)
}

// TestPanickingCellIsContained pins failure containment: a cell that
// panics fails with an error while the other cells keep their results,
// and the failure is not memoized — once the cause is gone, the same
// profiling pass runs and succeeds.
func TestPanickingCellIsContained(t *testing.T) {
	obsFreshProcess()
	defer obsFreshProcess()
	seed := int64(1) // the default ProfileSeed
	w := &panicky{strideWorkload([]int{1, 32}), &seed}

	res, err := Compare(w, Options{}, []Kind{BSDM, SDMBSM})
	if err == nil || !strings.Contains(err.Error(), "SDM+BSM") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want SDM+BSM's profiling panic as an error", err)
	}
	if res[0].Run.External == 0 {
		t.Fatal("the healthy BS+DM cell lost its result")
	}

	seed = 0
	if r, err := Run(w, Options{Kind: SDMBSM}); err != nil || r.Run.External == 0 {
		t.Fatalf("rerun after the fault cleared: %v (a failed pass was cached)", err)
	}

	// A panic outside any memo (the evaluation pass) is contained by Run,
	// with the same outcome serially and on the worker pool. The first
	// Compare recorded this tape; drop it so the evaluation pass
	// generates its streams again.
	seed = 2 // the default EvalSeed
	for _, jobs := range []int{1, 4} {
		obsFreshProcess()
		prev := parallel.SetJobs(jobs)
		_, err := Compare(w, Options{}, []Kind{BSDM, BSHM})
		parallel.SetJobs(prev)
		if err == nil || !strings.Contains(err.Error(), "BS+HM") || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("jobs=%d: err = %v, want the evaluation panic as an error", jobs, err)
		}
	}
}
