package cluster

import (
	"testing"

	"repro/internal/geom"
)

// BenchmarkSelectDL times the whole DL-assisted selection pipeline —
// window slicing, joint autoencoder training through internal/f64's
// row kernels, embedding, clustering, and mapping choice — at
// the training budget an sdambench sweep's DL cell runs under
// (Steps 75; window count and batch at the SelectDL defaults). This is
// the benchmark harness's cluster.select_dl_ms metric (bench/README.md)
// as a Go benchmark, wired into the CI bench smoke next to
// BenchmarkTrainJoint.
func BenchmarkSelectDL(b *testing.B) {
	p, deltas := buildProfile(b, []int{1, 16, 4, 64, 2, 32, 8, 128}, 600)
	for b.Loop() {
		if _, err := SelectDL(p, deltas, 4, geom.Default(), DLOptions{Steps: 75}, Guarded); err != nil {
			b.Fatal(err)
		}
	}
}
