package repro

import (
	"bytes"
	"testing"

	"repro/sdam"
)

// TestEndToEndPipeline walks the whole public API the way a downstream
// user would: build a machine, allocate under explicit mappings, then
// run a real kernel through profile → select → evaluate, persist the
// artifacts, and replay a recorded trace — asserting the headline
// behaviors at every step.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Hands-on machine: mapping choice changes channel spread.
	m := sdam.NewMachine(sdam.MachineConfig{})
	buf, err := m.Malloc(8<<20, 0, "e2e/default")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := m.Touch(buf + sdam.VA(i*2048%(8<<20))); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().ChannelsUsed != 1 {
		t.Fatalf("stride-2KB under default used %d channels", m.Stats().ChannelsUsed)
	}

	// 2. Full pipeline on a real kernel.
	w := sdam.NewKMeans(sdam.KernelOptions{MaxRefs: 30_000})
	prof, deltas, err := sdam.ProfileWorkload(w, sdam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Majors()) == 0 {
		t.Fatal("no major variables found")
	}
	if _, err := sdam.SelectKMeansAuto(prof, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := sdam.SelectDL(prof, deltas, 4, sdam.DLOptions{Steps: 60, MaxWindows: 64}); err != nil {
		t.Fatal(err)
	}
	results, err := sdam.Compare(w,
		sdam.Options{Clusters: 4, Engine: sdam.AcceleratorEngine(4)},
		[]sdam.Kind{sdam.BSDM, sdam.SDMBSMML})
	if err != nil {
		t.Fatal(err)
	}
	if s := results[1].SpeedupOver(results[0]); s < 2 {
		t.Fatalf("kmeans SDAM speedup %.2fx, want >2x", s)
	}

	// 3. Persistence round trips.
	var pbuf bytes.Buffer
	if err := prof.Save(&pbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := sdam.LoadProfile(&pbuf); err != nil {
		t.Fatal(err)
	}
	tr, err := sdam.RecordTrace(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	if err := tr.Save(&tbuf); err != nil {
		t.Fatal(err)
	}
	loaded, err := sdam.LoadTrace(&tbuf)
	if err != nil {
		t.Fatal(err)
	}

	// 4. The replayed trace still benefits from SDAM.
	rep, err := sdam.Compare(loaded.Workload(),
		sdam.Options{Clusters: 4, Engine: sdam.AcceleratorEngine(4)},
		[]sdam.Kind{sdam.BSDM, sdam.SDMBSMML})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep[1].SpeedupOver(rep[0]); s < 2 {
		t.Fatalf("replayed kmeans SDAM speedup %.2fx, want >2x", s)
	}
}

// TestExperimentShapeChecksQuick reruns every quick-scale experiment,
// the paper's and then the ablations (the catalog order of `sdamsim
// -quick all` and of its hold plan), and requires all shape claims to
// pass — the repository's one-command "does the reproduction still
// hold" gate.
func TestExperimentShapeChecksQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep of quick experiments")
	}
	for _, r := range append(sdam.Experiments(), sdam.AblationExperiments()...) {
		rep, err := sdam.RunExperiment(r.ID, true)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		for _, c := range rep.Failed() {
			t.Errorf("%s: %s (%s)", r.ID, c.Claim, c.Got)
		}
	}
}
