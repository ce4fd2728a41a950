package system

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestSelectionCacheSkipsRetraining pins the tentpole cache contract: a
// second Compare pass over the same workload and options re-derives
// byte-identical selection inputs, so every selection — including the
// DL selector's whole training run — must come from the cache. The DL
// trainer's step counter is the observable: zero additional training
// steps on the second pass.
func TestSelectionCacheSkipsRetraining(t *testing.T) {
	selections.Reset()
	mk := func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000}) }
	opts := Options{
		Clusters: 3,
		DL:       cluster.DLOptions{Steps: 24, MaxWindows: 16},
	}
	kinds := []Kind{SDMBSM, SDMBSMML, SDMBSMDL}

	before := nn.TrainSteps()
	first, err := Compare(mk(), opts, kinds)
	if err != nil {
		t.Fatalf("first Compare: %v", err)
	}
	trained := nn.TrainSteps() - before
	if trained == 0 {
		t.Fatal("first pass performed no training steps; the DL selector did not run")
	}

	second, err := Compare(mk(), opts, kinds)
	if err != nil {
		t.Fatalf("second Compare: %v", err)
	}
	if extra := nn.TrainSteps() - before - trained; extra != 0 {
		t.Fatalf("second pass performed %d training steps, want 0 (cache miss)", extra)
	}
	normalizeWallClock(first)
	normalizeWallClock(second)
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("%s: cached pass diverges from fresh pass", kinds[i])
		}
	}
}

// TestSelectionCacheKeyDiscriminates verifies the selection memo's key
// case by case: a change to an input of the profiling pass a selection
// reads (its seed, the HBM timing scale, the engine, the workload's
// parameters) or to the selector's own tuning must select afresh, and an
// evaluation-only change must reuse the selection. The DL tuning keys
// only the DL selector. A fresh DL selection shows as training steps
// (nn.TrainSteps), a fresh ML one as a select.cache_misses count.
func TestSelectionCacheKeyDiscriminates(t *testing.T) {
	resetObsState(t)
	mk := func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000}) }
	base := Options{Clusters: 2, DL: cluster.DLOptions{Steps: 24, MaxWindows: 16}}
	cases := []struct {
		name             string
		w                func() workload.Workload
		edit             func(*Options)
		freshML, freshDL bool
	}{
		{"ProfileSeed", mk, func(o *Options) { o.ProfileSeed = 3 }, true, true},
		{"HBMScale", mk, func(o *Options) { o.HBMScale = 2 }, true, true},
		{"Engine", mk, func(o *Options) { o.Engine = cpu.CPUConfig(2) }, true, true},
		{"workload", func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 7_000}) },
			func(*Options) {}, true, true},
		{"Clusters", mk, func(o *Options) { o.Clusters = 3 }, true, true},
		{"NoGuard", mk, func(o *Options) { o.NoGuard = true }, true, true},
		{"DL", mk, func(o *Options) { o.DL.Steps = 28 }, false, true},
		{"EvalSeed", mk, func(o *Options) { o.EvalSeed = 5 }, false, false},
	}
	// selects runs w under o and reports whether it computed o.Kind's
	// selection afresh.
	selects := func(w workload.Workload, o Options) bool {
		t.Helper()
		steps, misses := nn.TrainSteps(), counterValue(t, obs.Default.Snapshot(), "select.cache_misses")
		if _, err := Run(w, o); err != nil {
			t.Fatalf("%s: %v", o.Kind, err)
		}
		if o.Kind == SDMBSMDL {
			return nn.TrainSteps() != steps
		}
		return counterValue(t, obs.Default.Snapshot(), "select.cache_misses") != misses
	}
	for _, kind := range []Kind{SDMBSMML, SDMBSMDL} {
		o := base
		o.Kind = kind
		if !selects(mk(), o) {
			t.Fatalf("%s: the first run reused a selection from an empty cache", kind)
		}
		for _, tc := range cases {
			if selects(mk(), o) {
				t.Fatalf("%s: a rerun of the base options selected afresh", kind)
			}
			v := o
			tc.edit(&v)
			want := tc.freshML
			if kind == SDMBSMDL {
				want = tc.freshDL
			}
			if got := selects(tc.w(), v); got != want {
				t.Errorf("%s: a changed %s selected afresh: %v, want %v", kind, tc.name, got, want)
			}
		}
	}
}
