package repro

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/sdam"
)

// updateGolden rewrites the pinned reports from the current engine:
//
//	go test -run TestGoldenReports -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden experiment reports")

// goldenIDs are the experiments pinned byte-for-byte. They span every
// layer the hot path touches — raw machine accesses (fig2), the stride
// sweeps (fig3/fig4), the synthetic evaluation (fig11), the full
// six-configuration kernel sweep (fig12b), and the MSHR ablation that
// exercises the miss-window bookkeeping (abl-mshr). Wall-clock-bearing
// reports (fig13) are deliberately absent: only simulated quantities can
// be pinned.
var goldenIDs = []string{"fig2", "fig3", "fig4", "fig11", "fig12b", "abl-mshr"}

// TestGoldenReports pins the quick-scale experiment reports
// byte-for-byte. The golden files were generated from the engine before
// the hot-path flattening (dense page table, batch streams, a sorted
// MSHR ring, inlined core heap, recency-ordered cache sets), so a pass
// proves the optimized per-reference path produces bit-identical
// simulated results to the original map-based, linear-scan, stamp-LRU
// implementation.
func TestGoldenReports(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			rep, err := sdam.RunExperiment(id, true)
			if err != nil {
				t.Fatalf("running %s: %v", id, err)
			}
			got := rep.String()
			path := filepath.Join("testdata", "golden", id+".quick.txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverges from the pre-flattening golden report\n--- golden\n%s\n--- got\n%s", id, want, got)
			}
		})
	}
}
