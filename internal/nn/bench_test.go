package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSeqs mirrors the DL selector's training set shape on the
// committed jobs-8 bfs datapoint: 256 windows of 16 (Δ, VID) pairs.
func benchSeqs(n, T, numVIDs int) []Sequence {
	r := rand.New(rand.NewSource(7))
	seqs := make([]Sequence, n)
	for i := range seqs {
		s := Sequence{Deltas: make([]uint32, T), VIDs: make([]int, T)}
		for t := 0; t < T; t++ {
			s.Deltas[t] = uint32(r.Intn(1 << 15))
			s.VIDs[t] = r.Intn(numVIDs)
		}
		seqs[i] = s
	}
	return seqs
}

// BenchmarkTrainJoint measures the DL selector's training loop at the
// SelectDL defaults (Steps 300, Batch 4, K 32) — the dominant cost of
// the SDM+BSM+DL sweep cell that internal/f64's row kernels
// target. One sub-benchmark per lockstep tile width: lanes=4 is the
// single four-lane tile a one-worker host builds, lanes=2 the two tiles
// of a two-worker host, lanes=1 the four one-lane tiles of a host with
// four or more. The widths are fixed, so every tile shape is measured
// whatever the host's core count; -cpu still sets how many run at once.
func BenchmarkTrainJoint(b *testing.B) {
	seqs := benchSeqs(256, 16, 8)
	cfg := DefaultConfig(8)
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for b.Loop() {
				m, err := NewAutoencoder(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.trainJoint(seqs, TrainOptions{Steps: 75, K: 32, Seed: 1, Batch: 4}, lanes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
