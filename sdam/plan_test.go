package sdam

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/tape"
)

// memoWork is what a span of runs computed: tapes recorded, profiling
// passes run and selections trained.
type memoWork struct{ tapes, passes, sels int64 }

// memoCounts reads the memo miss counters, which count while metrics
// are on.
func memoCounts() memoWork {
	var w memoWork
	for _, c := range Metrics().Counters {
		switch c.Name {
		case "tape.builds":
			w.tapes = c.Value
		case "profile.cache_misses":
			w.passes = c.Value
		case "select.cache_misses":
			w.sels = c.Value
		}
	}
	return w
}

func (w memoWork) minus(v memoWork) memoWork {
	return memoWork{w.tapes - v.tapes, w.passes - v.passes, w.sels - v.sels}
}

// catalogWork is what each quick experiment computes when the catalog
// runs in order in a fresh process, as it did before the catalog
// released anything: the plan recomputes nothing. fig14 and fig15
// record no tape (they replay fig12a's and fig12b's), and abl-guard
// reuses abl-mshr's kmeans tapes, pass and selection. The other
// experiments read no memo.
var catalogWork = map[string]memoWork{
	"fig11":        {8, 4, 4},
	"fig12a":       {8, 4, 12},
	"fig12b":       {8, 4, 12},
	"fig14":        {0, 20, 20},
	"fig15":        {0, 4, 12},
	"abl-clusters": {2, 1, 4},
	"abl-mshr":     {2, 4, 4},
	"abl-guard":    {4, 2, 5},
	"abl-corun":    {8, 4, 4},
}

// TestCatalogReleasesAfterLastReader runs the quick catalog in order,
// as `sdamsim -quick all` does: each experiment computes exactly what
// catalogWork says, the tape memo ends retaining what it retained
// before the first experiment, and a Run of a fig12a workload records
// its tapes and runs its profiling pass again. Then fig14, run alone,
// releases what it held. It needs a process in which no earlier test
// computed a catalog entry; no other test in this package runs a
// catalog workload.
func TestCatalogReleasesAfterLastReader(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick catalog")
	}
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	retained := tape.CacheStats().Bytes
	var total memoWork
	for _, r := range append(Experiments(), AblationExperiments()...) {
		before := memoCounts()
		if _, err := RunExperiment(r.ID, true); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		got := memoCounts().minus(before)
		if got != catalogWork[r.ID] {
			t.Errorf("%s recorded %d tapes, ran %d passes, trained %d selections; want %+v",
				r.ID, got.tapes, got.passes, got.sels, catalogWork[r.ID])
		}
		total = memoWork{total.tapes + got.tapes, total.passes + got.passes, total.sels + got.sels}
	}
	if want := (memoWork{40, 47, 77}); total != want {
		t.Errorf("the catalog computed %+v, want %+v", total, want)
	}
	if b := tape.CacheStats().Bytes; b != retained {
		t.Errorf("after the catalog the tape memo retains %d bytes, want %d as before it", b, retained)
	}

	// rerun runs one of a catalog experiment's cells and reports what it
	// computed. Its selection is still cached.
	rerun := func(proxy string, opts Options) memoWork {
		t.Helper()
		w, err := NewProxy(proxy, ProxyOptions{Refs: 24_000, MaxMinorVars: 64})
		if err != nil {
			t.Fatal(err)
		}
		before := memoCounts()
		if _, err := RunBenchmark(w, opts); err != nil {
			t.Fatal(err)
		}
		return memoCounts().minus(before)
	}
	if got := rerun("mcf", Options{Kind: SDMBSM}); got != (memoWork{2, 1, 0}) {
		t.Errorf("after the catalog, fig12a's mcf SDM+BSM cell computed %+v; want its 2 tapes and pass again", got)
	}

	retained = tape.CacheStats().Bytes
	if _, err := RunExperiment("fig14", true); err != nil {
		t.Fatal(err)
	}
	if b := tape.CacheStats().Bytes; b != retained {
		t.Errorf("after fig14 alone the tape memo retains %d bytes, want %d as before it", b, retained)
	}
	slowCore := CPUEngine(4)
	slowCore.ComputeNs = 12
	if got := rerun("streamcluster", Options{Kind: SDMBSMML, Clusters: 32, Engine: slowCore}); got != (memoWork{2, 1, 0}) {
		t.Errorf("after fig14 alone, its streamcluster SDAM cell computed %+v; want its 2 tapes and pass again", got)
	}
}
