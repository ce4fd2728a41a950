package cluster

import (
	"testing"

	"repro/internal/geom"
)

// BenchmarkSelectDL times the whole DL-assisted selection pipeline —
// window slicing, joint autoencoder training through internal/f64's
// lane-fused kernels, embedding, clustering, and mapping choice — at
// the training budget the committed jobs-8 bfs datapoint runs under
// (Steps 75; window count and batch at the SelectDL defaults). This is
// the select_ms column of BENCH_hotpath.json as a Go benchmark, wired
// into the CI bench smoke next to BenchmarkTrainJoint.
func BenchmarkSelectDL(b *testing.B) {
	p, deltas := buildProfile(b, []int{1, 16, 4, 64, 2, 32, 8, 128}, 600)
	for b.Loop() {
		if _, err := SelectDL(p, deltas, 4, geom.Default(), DLOptions{Steps: 75}, Guarded); err != nil {
			b.Fatal(err)
		}
	}
}
