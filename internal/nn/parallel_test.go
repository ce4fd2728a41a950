package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// genSequences builds a deterministic training set.
func genSequences(n, seqLen, numVIDs int, seed int64) []Sequence {
	r := rand.New(rand.NewSource(seed))
	seqs := make([]Sequence, n)
	for i := range seqs {
		for t := 0; t < seqLen; t++ {
			seqs[i].Deltas = append(seqs[i].Deltas, uint32(r.Intn(1<<15)))
			seqs[i].VIDs = append(seqs[i].VIDs, r.Intn(numVIDs))
		}
	}
	return seqs
}

// trainOnce trains a fresh model with jobs workers and lockstep tiles
// lanes wide.
func trainOnce(t *testing.T, jobs, lanes int, opts TrainOptions) (TrainReport, []*Param) {
	t.Helper()
	prev := parallel.SetJobs(jobs)
	defer parallel.SetJobs(prev)
	m, err := NewAutoencoder(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.trainJoint(genSequences(48, 12, 8, 7), opts, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return report, m.Params()
}

// TestTrainJointBitIdenticalAcrossJobs pins the tentpole invariant: the
// batched trainer's fixed-slot-order gradient reduction makes the whole
// training trajectory — final weights, losses, clustering, embeddings —
// bit-identical no matter how many workers compute the per-sequence
// gradients or how wide the lockstep tiles are. Tile widths 1-4 are
// set explicitly, so every shape runs whatever the host's core count
// (Batch 4 at 3 lanes is a 3-lane tile plus a 1-lane one).
func TestTrainJointBitIdenticalAcrossJobs(t *testing.T) {
	opts := TrainOptions{Steps: 30, K: 3, Batch: 4, Reassign: 10}
	serialReport, serialParams := trainOnce(t, 1, laneWidth, opts)
	for _, jobs := range []int{1, 2, 8} {
		for lanes := 1; lanes <= laneWidth; lanes++ {
			if jobs == 1 && lanes == laneWidth {
				continue
			}
			report, params := trainOnce(t, jobs, lanes, opts)
			if !reflect.DeepEqual(serialReport, report) {
				t.Fatalf("jobs=%d lanes=%d: report diverged from serial run", jobs, lanes)
			}
			for i, p := range params {
				if !reflect.DeepEqual(serialParams[i].W, p.W) {
					t.Fatalf("jobs=%d lanes=%d: param %s weights diverged", jobs, lanes, p.Name)
				}
			}
		}
	}
}

// trainDigest is an FNV-1a digest of a training run's outcome: every
// final weight, the initial, final and cluster losses, every embedding,
// and the assignment.
func trainDigest(report TrainReport, params []*Param) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range params {
		for _, w := range p.W {
			put(math.Float64bits(w))
		}
	}
	put(math.Float64bits(report.InitialLoss))
	put(math.Float64bits(report.FinalLoss))
	put(math.Float64bits(report.ClusterLoss))
	for _, e := range report.Embeddings {
		for _, v := range e {
			put(math.Float64bits(v))
		}
	}
	for _, a := range report.Assignment {
		put(uint64(a))
	}
	return h.Sum64()
}

// TestTrainJointBatchOneMatchesPinnedDigests pins the Batch-1 training
// trajectory to digests recorded when Batch 1 still ran through its own
// per-sequence forward/backward path: the one-lane lockstep tile must
// reproduce that path bit for bit, on equal-length, ragged and
// two-layer inputs, at any job count and with either f64 kernel set.
func TestTrainJointBatchOneMatchesPinnedDigests(t *testing.T) {
	stacked := DefaultConfig(8)
	stacked.Layers = 2
	for _, tc := range []struct {
		name string
		cfg  Config
		seqs []Sequence
		want uint64
	}{
		{"equal", DefaultConfig(8), genSequences(48, 12, 8, 7), 0x33ce83496cac6c0a},
		{"ragged", DefaultConfig(8), genRagged(24, 8, 11), 0x045634d26fe36265},
		{"layers2", stacked, genSequences(24, 8, 8, 5), 0x1dd7bc3cc0ee3977},
	} {
		for _, jobs := range []int{1, 4} {
			prev := parallel.SetJobs(jobs)
			m, err := NewAutoencoder(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := m.TrainJoint(tc.seqs, TrainOptions{Steps: 20, K: 3, Batch: 1, Reassign: 5})
			parallel.SetJobs(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got := trainDigest(report, m.Params()); got != tc.want {
				t.Errorf("%s jobs=%d: digest %#016x, want %#016x", tc.name, jobs, got, tc.want)
			}
		}
	}
}

// TestTrainJointBatchFourMatchesPinnedDigests pins the Batch-4 training
// trajectory to digests recorded while only four-lane tiles took the
// dense backward and 1-3-lane tiles ran the per-row gather kernels:
// padding narrow tiles onto the dense kernels must reproduce those bits
// at every tile width and job count, on equal-length, ragged and
// two-layer inputs.
func TestTrainJointBatchFourMatchesPinnedDigests(t *testing.T) {
	stacked := DefaultConfig(8)
	stacked.Layers = 2
	for _, tc := range []struct {
		name string
		cfg  Config
		seqs []Sequence
		want uint64
	}{
		{"equal", DefaultConfig(8), genSequences(48, 12, 8, 7), 0xd792520ebf840884},
		{"ragged", DefaultConfig(8), genRagged(24, 8, 11), 0xd60c05fa87620675},
		{"layers2", stacked, genSequences(24, 8, 8, 5), 0x80268cea04e3d3b2},
	} {
		for _, jobs := range []int{1, 2} {
			for lanes := 1; lanes <= laneWidth; lanes++ {
				prev := parallel.SetJobs(jobs)
				m, err := NewAutoencoder(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				report, err := m.trainJoint(tc.seqs, TrainOptions{Steps: 20, K: 3, Batch: 4, Reassign: 5}, lanes)
				parallel.SetJobs(prev)
				if err != nil {
					t.Fatal(err)
				}
				if got := trainDigest(report, m.Params()); got != tc.want {
					t.Errorf("%s jobs=%d lanes=%d: digest %#016x, want %#016x", tc.name, jobs, lanes, got, tc.want)
				}
			}
		}
	}
}

// TestEncodeMatchesForward pins the encoder-only embedding sweep
// against a training step's full forward pass: the decoder never feeds
// back into h, so the two must agree bit for bit.
func TestEncodeMatchesForward(t *testing.T) {
	m, err := NewAutoencoder(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	seqs := genSequences(8, 12, 8, 3)
	tr := newTrainer(m, 1, 12, 1)
	es := tr.embedAll(seqs)
	for i := range seqs {
		// The step accumulates gradients but leaves the weights alone.
		tr.step(seqs, []int{i}, nil, nil, 0)
		if !reflect.DeepEqual(append([]float64(nil), tr.scr[0].h...), es[i]) {
			t.Fatalf("sequence %d: encoder-only embedding differs from the training forward's h", i)
		}
	}
}

// TestTrainerStepZeroAlloc pins the reused per-slot scratch: after the
// first step warms the buffers, a training step allocates nothing at
// any tile width — including the padded 1-3-lane tiles, whose zero
// dPre column and discard row are sized once, not per step. A
// single-tile trainer is measured through trainer.step; a multi-tile
// one through its tiles' run (step's parallel fan-out allocates its
// result slices by design).
func TestTrainerStepZeroAlloc(t *testing.T) {
	prev := parallel.SetJobs(1)
	defer parallel.SetJobs(prev)
	m, err := NewAutoencoder(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	seqs := genSequences(8, 12, 8, 5)
	centroids := [][]float64{make([]float64, m.cfg.Hidden)}
	assign := make([]int, len(seqs))
	for _, tc := range []struct{ batch, lanes int }{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {4, 2}, {4, 1}} {
		tr := newTrainer(m, tc.batch, 12, tc.lanes)
		idx := make([]int, tc.batch)
		for b := range idx {
			idx[b] = b
		}
		step := func() {
			if len(tr.tiles) == 1 {
				tr.step(seqs, idx, centroids, assign, 0.01)
				return
			}
			for _, ti := range tr.tiles {
				ti.run(seqs, idx, centroids, assign, 0.01)
			}
		}
		step() // warm-up
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Fatalf("batch %d, %d-lane tiles: a training step allocates %v times per run, want 0", tc.batch, tc.lanes, allocs)
		}
	}
}

// genRagged builds sequences whose lengths cycle 4..15, so lockstep
// groups mix full and partial lanes: timesteps below the group minimum
// take the dense fused kernels, the ragged tail takes the gather path.
func genRagged(n, numVIDs int, seed int64) []Sequence {
	r := rand.New(rand.NewSource(seed))
	seqs := make([]Sequence, n)
	for i := range seqs {
		T := 4 + (i*5)%12
		for t := 0; t < T; t++ {
			seqs[i].Deltas = append(seqs[i].Deltas, uint32(r.Intn(1<<15)))
			seqs[i].VIDs = append(seqs[i].VIDs, r.Intn(numVIDs))
		}
	}
	return seqs
}

// TestTrainJointRaggedLanesBitIdentical sweeps batch sizes 1-8 over a
// ragged-length training set at every tile width up to the batch:
// every lockstep lane count (full groups of four plus remainders of
// 1-3) and every dense/gather boundary inside a group gets exercised,
// and the whole trajectory must stay bit-identical between a serial
// run and an 8-worker run — the same invariant the fused f64 kernels
// are held to on the equal-length fast path.
func TestTrainJointRaggedLanesBitIdentical(t *testing.T) {
	seqs := genRagged(24, 8, 11)
	train := func(jobs, batch, lanes int) (TrainReport, []*Param) {
		prev := parallel.SetJobs(jobs)
		defer parallel.SetJobs(prev)
		m, err := NewAutoencoder(DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		report, err := m.trainJoint(seqs, TrainOptions{Steps: 10, K: 3, Batch: batch, Reassign: 5}, lanes)
		if err != nil {
			t.Fatal(err)
		}
		return report, m.Params()
	}
	for batch := 1; batch <= 8; batch++ {
		serialReport, serialParams := train(1, batch, min(batch, laneWidth))
		for lanes := 1; lanes <= min(batch, laneWidth); lanes++ {
			report, params := train(8, batch, lanes)
			if !reflect.DeepEqual(serialReport, report) {
				t.Fatalf("batch=%d lanes=%d: report diverged across jobs", batch, lanes)
			}
			for i, p := range params {
				if !reflect.DeepEqual(serialParams[i].W, p.W) {
					t.Fatalf("batch=%d lanes=%d: param %s weights diverged", batch, lanes, p.Name)
				}
			}
		}
	}
}
