package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kmeans"
)

// stepOne runs seq through one Batch-1 training step of a fresh
// trainer, accumulating its gradient into m's params, and returns the
// step's loss: the reconstruction loss plus, with a centroid, the
// joint clustering term λ·‖h − μ‖².
func stepOne(m *Autoencoder, seq Sequence, centroid []float64, lambda float64) float64 {
	var centroids [][]float64
	if centroid != nil {
		centroids = [][]float64{centroid}
	}
	tr := newTrainer(m, 1, len(seq.Deltas))
	return tr.step([]Sequence{seq}, []int{0}, centroids, []int{0}, lambda)
}

// embed returns the learned embedding of every sequence.
func embed(m *Autoencoder, seqs []Sequence) [][]float64 {
	maxT := 1
	for _, s := range seqs {
		maxT = max(maxT, len(s.Deltas))
	}
	return newTrainer(m, 1, maxT).embedAll(seqs)
}

// gradCheck compares every stride-th analytic gradient of m's params,
// as stepOne leaves them, with central differences of stepOne's loss.
func gradCheck(t *testing.T, m *Autoencoder, seq Sequence, centroid []float64, lambda float64, stride int) int {
	t.Helper()
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	stepOne(m, seq, centroid, lambda)
	var analytic [][]float64
	for _, p := range m.Params() {
		analytic = append(analytic, append([]float64(nil), p.Grad...))
	}
	// Every loss evaluation accumulates more gradient into the params;
	// the comparison reads the snapshot above.
	loss := func() float64 { return stepOne(m, seq, centroid, lambda) }
	checked := 0
	for pi, p := range m.Params() {
		for i := 0; i < len(p.W); i += stride {
			want := numericGrad(&p.W[i], loss)
			if math.Abs(analytic[pi][i]-want) > 1e-5 {
				t.Fatalf("%s[%d]: analytic %.8f numeric %.8f", p.Name, i, analytic[pi][i], want)
			}
			checked++
		}
	}
	return checked
}

// synthSequences builds sequences from two very different access
// patterns: variable 0 streams (delta 1), variable 1 strides by 16
// (delta 16). Each sequence is pure one pattern, mimicking windows of a
// per-variable trace.
func synthSequences(n, seqLen int) []Sequence {
	var seqs []Sequence
	for i := 0; i < n; i++ {
		var s Sequence
		vid := i % 2
		delta := uint32(1)
		if vid == 1 {
			delta = 16
		}
		for t := 0; t < seqLen; t++ {
			s.Deltas = append(s.Deltas, delta)
			s.VIDs = append(s.VIDs, vid)
		}
		seqs = append(seqs, s)
	}
	return seqs
}

func smallConfig() Config {
	return Config{DeltaBits: 15, NumVIDs: 4, EmbDim: 8, Hidden: 12, Seed: 7}
}

func TestNewAutoencoderValidation(t *testing.T) {
	if _, err := NewAutoencoder(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	m, err := NewAutoencoder(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.EmbeddingDim() != 12 {
		t.Fatalf("EmbeddingDim = %d", m.EmbeddingDim())
	}
	// deltaEmb(W,b) + vidEmb + enc(Wx,Wh,b) + dec(Wx,Wh,b) + out(W,b).
	if len(m.Params()) != 11 {
		t.Fatalf("params = %d", len(m.Params()))
	}
}

func TestReconstructionLossDecreases(t *testing.T) {
	m, _ := NewAutoencoder(smallConfig())
	seqs := synthSequences(16, 8)
	opt := NewAdam(m.Params(), 0.01)
	r := rand.New(rand.NewSource(1))
	tr := newTrainer(m, 1, 8)
	var first, last float64
	const steps = 150
	for i := 0; i < steps; i++ {
		loss := tr.step(seqs, []int{r.Intn(len(seqs))}, nil, nil, 0)
		if i == 0 {
			first = loss
		}
		last = loss
		opt.Step()
	}
	if last >= first {
		t.Fatalf("reconstruction loss did not decrease: %.4f -> %.4f", first, last)
	}
	if err := CheckFinite(m.Params()); err != nil {
		t.Fatal(err)
	}
}

func TestTrainJointSeparatesPatterns(t *testing.T) {
	m, _ := NewAutoencoder(smallConfig())
	seqs := synthSequences(24, 8)
	rep, err := m.TrainJoint(seqs, TrainOptions{Steps: 300, K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Assignment) != len(seqs) {
		t.Fatalf("assignment length %d", len(rep.Assignment))
	}
	// All stride-1 sequences must share a cluster, disjoint from the
	// stride-16 cluster.
	c0 := rep.Assignment[0]
	c1 := rep.Assignment[1]
	if c0 == c1 {
		t.Fatal("distinct patterns collapsed into one cluster")
	}
	for i, a := range rep.Assignment {
		want := c0
		if i%2 == 1 {
			want = c1
		}
		if a != want {
			t.Fatalf("sequence %d assigned %d, want %d", i, a, want)
		}
	}
}

// TestTrainJointErrors pins that malformed training input is an error,
// not a panic inside the trainer.
func TestTrainJointErrors(t *testing.T) {
	good := Sequence{Deltas: []uint32{1, 2}, VIDs: []int{0, 1}}
	for _, tc := range []struct {
		name string
		seqs []Sequence
		want string
	}{
		{"no sequences", nil, "no training sequences"},
		{"empty sequence", []Sequence{good, {}}, "sequence 1 is empty"},
		{"short VIDs", []Sequence{good, {Deltas: []uint32{1, 2}, VIDs: []int{0}}}, "1 VIDs for 2 deltas"},
		{"negative VID", []Sequence{good, {Deltas: []uint32{1, 2}, VIDs: []int{0, -3}}}, "negative VID -3"},
	} {
		m, _ := NewAutoencoder(smallConfig())
		_, err := m.TrainJoint(tc.seqs, TrainOptions{Steps: 4, K: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestEmbeddingsClusterableByKMeans(t *testing.T) {
	// Even a briefly trained model must give embeddings on which K-Means
	// achieves lower loss with k=2 than k=1 for two-pattern input — the
	// premise of the DL-assisted selector.
	m, _ := NewAutoencoder(smallConfig())
	seqs := synthSequences(16, 8)
	if _, err := m.TrainJoint(seqs, TrainOptions{Steps: 120, K: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	embs := embed(m, seqs)
	k1, _ := kmeans.Cluster(embs, 1, kmeans.Options{})
	k2, _ := kmeans.Cluster(embs, 2, kmeans.Options{})
	if k2.Loss >= k1.Loss {
		t.Fatalf("k=2 loss %.4f !< k=1 loss %.4f", k2.Loss, k1.Loss)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	m, _ := NewAutoencoder(smallConfig())
	seqs := synthSequences(2, 8)[:1]
	a := embed(m, seqs)[0]
	b := embed(m, seqs)[0]
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Embed not deterministic")
		}
	}
}

func TestAutoencoderFullModelGradCheck(t *testing.T) {
	// Numeric gradient check through the whole model (embeddings, both
	// LSTMs, output head) including the joint clustering term.
	cfg := Config{DeltaBits: 6, NumVIDs: 2, EmbDim: 3, Hidden: 4, Seed: 11}
	m, err := NewAutoencoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := Sequence{Deltas: []uint32{1, 3, 2}, VIDs: []int{0, 1, 0}}
	centroid := []float64{0.1, -0.2, 0.3, 0}
	if checked := gradCheck(t, m, seq, centroid, 0.05, 5); checked < 30 {
		t.Fatalf("only %d weights checked", checked)
	}
}

func TestPaperConfigMatchesTable2(t *testing.T) {
	cfg := PaperConfig(10)
	if cfg.EmbDim != 256 || cfg.Hidden != 256 {
		t.Fatalf("paper config = %+v, want 256-dim embedding and hidden (Table 2)", cfg)
	}
}

func TestStackedModelGradCheck(t *testing.T) {
	// The full-model numeric gradient check again, with two stacked LSTM
	// layers per coder (the paper's ×2 depth).
	cfg := Config{DeltaBits: 5, NumVIDs: 2, EmbDim: 3, Hidden: 3, Layers: 2, Seed: 13}
	m, err := NewAutoencoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := Sequence{Deltas: []uint32{1, 2}, VIDs: []int{0, 1}}
	gradCheck(t, m, seq, nil, 0, 7)
}

func TestStackedTrainingConverges(t *testing.T) {
	cfg := smallConfig()
	cfg.Layers = 2
	m, err := NewAutoencoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := synthSequences(16, 8)
	rep, err := m.TrainJoint(seqs, TrainOptions{Steps: 200, K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assignment[0] == rep.Assignment[1] {
		t.Fatal("stacked model collapsed the two patterns")
	}
	// 2 layers → 3 more params per coder.
	if len(m.Params()) != 17 {
		t.Fatalf("params = %d, want 17", len(m.Params()))
	}
}
