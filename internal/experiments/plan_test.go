package experiments

import (
	"sync"
	"testing"

	"repro/internal/system"
)

// TestPlanCarriesOnlySharedKeys pins the quick catalog's sharing: the
// keys an experiment's hold outlives it for are exactly fig12a's and
// fig12b's eight tapes (fig14 and fig15 replay them) and abl-mshr's
// kmeans tape pair and profiling pass (abl-guard reads them), and a key
// is carried exactly when a later experiment reads it.
func TestPlanCarriesOnlySharedKeys(t *testing.T) {
	steps := planFor(Quick)
	readers := make(map[system.Key][]string)
	for _, r := range append(All(), Ablations()...) {
		for _, k := range steps[r.ID].keys {
			readers[k] = append(readers[k], r.ID)
		}
	}
	want := map[string]int{"fig12a": 8, "fig12b": 8, "abl-mshr": 3}
	for id, st := range steps {
		carried := 0
		for i, k := range st.keys {
			if later := readers[k][len(readers[k])-1] != id; st.carry[i] != later {
				t.Errorf("%s: a key's carry is %v, but a later experiment reads it: %v", id, st.carry[i], later)
			}
			if st.carry[i] {
				carried++
			}
		}
		if carried != want[id] {
			t.Errorf("%s carries %d keys past its return, want %d", id, carried, want[id])
		}
	}
}

// TestConcurrentPlannedRunsMatchSerial runs experiments that share memo
// entries concurrently under the plan, so one run's release races
// another's reads: every report must match its serial run byte for
// byte.
func TestConcurrentPlannedRunsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("system sweeps in long mode only")
	}
	ids := []string{"fig12a", "fig14", "abl-mshr", "abl-guard"}
	serial := make(map[string]string)
	for _, id := range ids {
		serial[id] = runPlanned(t, id)
	}
	var wg sync.WaitGroup
	got := make([]string, 2*len(ids))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runPlanned(t, ids[i%len(ids)])
		}()
	}
	wg.Wait()
	for i, rep := range got {
		if id := ids[i%len(ids)]; rep != serial[id] {
			t.Errorf("%s run concurrently diverges from its serial run\n--- serial\n%s\n--- concurrent\n%s", id, serial[id], rep)
		}
	}
}

// runPlanned runs experiment id at quick scale under the plan and
// returns its report.
func runPlanned(t *testing.T, id string) string {
	r, ok := ByID(id)
	if !ok {
		t.Errorf("no experiment %q", id)
		return ""
	}
	rep, err := Run(r, Quick)
	if err != nil {
		t.Errorf("%s: %v", id, err)
		return ""
	}
	return rep.String()
}
