package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/f64"
	"repro/internal/geom"
	"repro/internal/kmeans"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// trainSteps counts sequence-gradient evaluations (one per batch slot
// per laneTile.run) process-wide. The selection cache's tests read it
// to prove a cached selection performed zero additional training work.
var trainSteps atomic.Uint64

// obsTrainSteps mirrors trainSteps into the obs registry — the
// "selection cache hit ⇒ zero optimizer steps" counter equality. The
// call site is //sdam:noalloc (laneTile.run); obs fast paths
// allocate nothing and the noalloc analyzer knows they are allowed.
var obsTrainSteps = obs.NewCounter("nn.train_steps", "steps", "per-sequence forward/backward training evaluations")

// TrainSteps returns the number of training-step (per-sequence
// forward/backward) evaluations performed by this process so far.
func TrainSteps() uint64 { return trainSteps.Load() }

// Sequence is one training sample for the embedding model: a window of
// consecutive (Δ, VID) pairs from the profiled access trace (Fig 9).
type Sequence struct {
	Deltas []uint32 // 15-bit XOR deltas between consecutive accesses
	VIDs   []int
}

// Config sizes the autoencoder. The paper's production values (Table 2:
// 256×2 LSTM, 256-dim embedding, 500k steps) are scaled down by default
// to laptop-budget sizes; the architecture is identical.
type Config struct {
	DeltaBits int // width of Δ; geom.OffsetBits in this system
	NumVIDs   int // vocabulary of variable IDs
	EmbDim    int // per-input embedding size
	Hidden    int // LSTM hidden size == learned-embedding dimension
	Layers    int // stacked LSTM layers per coder (Table 2: 2); default 1
	Seed      int64
}

func (c Config) layers() int {
	if c.Layers <= 0 {
		return 1
	}
	return c.Layers
}

// DefaultConfig returns the scaled-down training configuration.
func DefaultConfig(numVIDs int) Config {
	return Config{DeltaBits: geom.OffsetBits, NumVIDs: numVIDs, EmbDim: 16, Hidden: 32, Layers: 1, Seed: 1}
}

// PaperConfig returns Table 2's full-size hyper-parameters, for
// documentation and the profiling-cost experiment's extrapolation.
func PaperConfig(numVIDs int) Config {
	return Config{DeltaBits: geom.OffsetBits, NumVIDs: numVIDs, EmbDim: 256, Hidden: 256, Layers: 2, Seed: 1}
}

// Autoencoder is the embedding-LSTM model of Fig 9: Δ and VID are
// embedded separately, concatenated, fed to an LSTM encoder whose final
// hidden state is the sequence embedding; an LSTM decoder conditioned on
// that embedding reconstructs the Δ bit-vectors, trained with the L1
// reconstruction loss of Eq. 3 and optionally a joint clustering loss.
type Autoencoder struct {
	cfg      Config
	deltaEmb *Linear // DeltaBits → EmbDim (sum of per-bit embeddings)
	vidEmb   *Param  // NumVIDs × EmbDim lookup
	enc      *Stack  // 2·EmbDim → Hidden (Layers deep)
	dec      *Stack  // Hidden → Hidden (Layers deep)
	out      *Linear // Hidden → DeltaBits logits
}

// NewAutoencoder builds the model.
func NewAutoencoder(cfg Config) (*Autoencoder, error) {
	if cfg.DeltaBits <= 0 || cfg.NumVIDs <= 0 || cfg.EmbDim <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("nn: invalid config %+v", cfg)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	return &Autoencoder{
		cfg:      cfg,
		deltaEmb: NewLinear("deltaEmb", cfg.DeltaBits, cfg.EmbDim, r),
		vidEmb:   NewParam("vidEmb", cfg.NumVIDs, cfg.EmbDim, r),
		enc:      NewStack("enc", 2*cfg.EmbDim, cfg.Hidden, cfg.layers(), r),
		dec:      NewStack("dec", cfg.Hidden, cfg.Hidden, cfg.layers(), r),
		out:      NewLinear("out", cfg.Hidden, cfg.DeltaBits, r),
	}, nil
}

// Params returns every learnable tensor.
func (m *Autoencoder) Params() []*Param {
	ps := m.deltaEmb.Params()
	ps = append(ps, m.vidEmb)
	ps = append(ps, m.enc.Params()...)
	ps = append(ps, m.dec.Params()...)
	ps = append(ps, m.out.Params()...)
	return ps
}

// shadow returns an Autoencoder sharing m's weights but with private
// gradient buffers — one batch slot's view during parallel training.
func (m *Autoencoder) shadow() *Autoencoder {
	return &Autoencoder{
		cfg:      m.cfg,
		deltaEmb: m.deltaEmb.shadow(),
		vidEmb:   shadowParam(m.vidEmb),
		enc:      m.enc.shadow(),
		dec:      m.dec.shadow(),
		out:      m.out.shadow(),
	}
}

// EmbeddingDim returns the dimensionality of learned embeddings.
func (m *Autoencoder) EmbeddingDim() int { return m.cfg.Hidden }

// stepScratch is the reusable workspace of one batch slot or embedding
// lane: every buffer a forward and backward pass needs, allocated once
// and rewritten per call, so the steady-state step performs zero
// allocations. The forward-pass fields alias the backing buffers and
// are valid until the scratch's next use.
type stepScratch struct {
	maxT int

	// Forward pass of the current sequence.
	bitVecs [][]float64 // Δ bit vectors, the reconstruction targets
	h       []float64   // final encoder hidden = sequence embedding
	probs   [][]float64 // reconstructed bit probabilities

	bitsAll   [][]float64
	embsAll   [][]float64
	logitsAll [][]float64
	probsAll  [][]float64
	decIn     [][]float64
	dDecOuts  [][]float64
	dEncOuts  [][]float64
	enc, dec  *StackState
	dLogit    []float64
	dh        []float64
}

// newScratch allocates a workspace for sequences up to maxT steps.
func (m *Autoencoder) newScratch(maxT int) *stepScratch {
	sc := &stepScratch{}
	sc.alloc(m, maxT)
	return sc
}

func (sc *stepScratch) alloc(m *Autoencoder, maxT int) {
	if maxT < 1 {
		maxT = 1
	}
	DB, E, H := m.cfg.DeltaBits, m.cfg.EmbDim, m.cfg.Hidden
	sc.maxT = maxT
	mat := func(cols int) [][]float64 {
		buf := make([]float64, maxT*cols)
		rows := make([][]float64, maxT)
		for t := range rows {
			rows[t] = buf[t*cols : (t+1)*cols]
		}
		return rows
	}
	sc.bitsAll = mat(DB)
	sc.embsAll = mat(2 * E)
	sc.logitsAll = mat(DB)
	sc.probsAll = mat(DB)
	sc.dDecOuts = mat(H)
	sc.decIn = make([][]float64, maxT)
	sc.dEncOuts = make([][]float64, maxT)
	sc.enc = m.enc.NewState(maxT)
	sc.dec = m.dec.NewState(maxT)
	sc.dLogit = make([]float64, DB)
	sc.dh = make([]float64, H)
}

func (sc *stepScratch) ensure(m *Autoencoder, T int) {
	if T > sc.maxT {
		sc.alloc(m, T)
	}
}

// embedInputs fills the per-step bit vectors and concatenated Δ/VID
// embeddings for s into the scratch, returning the input rows.
func (m *Autoencoder) embedInputs(sc *stepScratch, s Sequence) [][]float64 {
	E := m.cfg.EmbDim
	T := len(s.Deltas)
	sc.ensure(m, T)
	sc.bitVecs = sc.bitsAll[:T]
	embs := sc.embsAll[:T]
	for t, d := range s.Deltas {
		bits := sc.bitVecs[t]
		for b := 0; b < m.cfg.DeltaBits; b++ {
			bits[b] = float64(d >> b & 1)
		}
		cat := embs[t]
		m.deltaEmb.ForwardIn(cat[:E], bits)
		vid := s.VIDs[t] % m.cfg.NumVIDs
		copy(cat[E:], m.vidEmb.W[vid*E:(vid+1)*E])
	}
	return embs
}

// reconLoss returns the Eq. 3 L1 reconstruction loss of the scratch's
// forward pass, averaged per bit.
func (sc *stepScratch) reconLoss() float64 {
	var loss float64
	var n int
	for t, p := range sc.probs {
		for j := range p {
			loss += math.Abs(p[j] - sc.bitVecs[t][j])
			n++
		}
	}
	return loss / float64(n)
}

// TrainReport summarizes a training run.
type TrainReport struct {
	Steps       int
	InitialLoss float64
	FinalLoss   float64
	ClusterLoss float64
	Centroids   [][]float64
	Assignment  []int // per input sequence
	// Embeddings holds the final post-training embedding of every input
	// sequence — the vectors the final clustering ran on. Callers that
	// need per-sequence embeddings (the DL selector) reuse these instead
	// of re-running an inference sweep.
	Embeddings [][]float64
}

// TrainOptions drives TrainJoint.
type TrainOptions struct {
	Steps    int     // optimizer steps; default 400
	LR       float64 // default 0.001 (Table 2)
	Lambda   float64 // joint-loss weight; default 0.01 (Table 2)
	K        int     // clusters; required for the joint phase
	Reassign int     // recompute K-Means every this many joint steps; default 50
	Seed     int64
	// Batch is the number of sequences per optimizer step; default 1.
	// Each sequence's gradient is computed into its own slot's buffers
	// and the slots are reduced in slot order, so the mean batch
	// gradient is bit-identical at any worker count.
	Batch int
}

// trainer owns the per-slot shadows and scratches of one TrainJoint
// run. Slot b's gradient always accumulates in slot b's buffers no
// matter which worker or lane tile computes it, so the reduction order
// — slot 0 first, then 1, ... — is independent of scheduling. Batch 1
// is the same machinery with one slot in a one-lane tile.
type trainer struct {
	master  *Autoencoder
	slots   []*Autoencoder
	scr     []*stepScratch
	mParams []*Param
	sParams [][]*Param
	losses  []float64
	maxT    int
	tiles   []*laneTile  // lockstep lane groups over the batch slots
	embScr  []*embedTile // per-worker lockstep scratch for embedding sweeps
}

// newTrainer builds a trainer for batch slots whose lockstep tiles are
// lanes wide (the last tile takes the remainder).
func newTrainer(m *Autoencoder, batch, maxT, lanes int) *trainer {
	tr := &trainer{master: m, maxT: maxT, losses: make([]float64, batch), mParams: m.Params()}
	for b := 0; b < batch; b++ {
		sh := m.shadow()
		tr.slots = append(tr.slots, sh)
		tr.scr = append(tr.scr, sh.newScratch(maxT))
		tr.sParams = append(tr.sParams, sh.Params())
	}
	// Partition the batch slots into contiguous lockstep tiles. The
	// partition only affects scheduling and weight-stream reuse, never
	// bits: slot b's gradient lands in slot b's buffers regardless.
	for lo := 0; lo < batch; lo += lanes {
		hi := lo + lanes
		if hi > batch {
			hi = batch
		}
		tr.tiles = append(tr.tiles, &laneTile{tr: tr, lo: lo, hi: hi})
	}
	return tr
}

// step runs one optimizer step's gradient computation over the batch
// indices idx (one per slot), leaving the mean gradient in the master's
// params and returning the mean loss. centroids/assign supply the
// joint-phase clustering pull; nil means reconstruction only.
func (tr *trainer) step(seqs []Sequence, idx []int, centroids [][]float64, assign []int, lambda float64) float64 {
	// Each lockstep lane tile advances its slots through the network
	// together, streaming every weight row once across its lanes
	// (lockstep.go). Tiles run concurrently when there is more than one;
	// each batch slot owns its shadow model and scratch.
	if len(tr.tiles) == 1 {
		tr.tiles[0].run(seqs, idx, centroids, assign, lambda)
	} else {
		parallel.Map(tr.tiles, func(_ int, ti *laneTile) (struct{}, error) {
			ti.run(seqs, idx, centroids, assign, lambda)
			return struct{}{}, nil
		})
	}
	// Ordered reduction: slot 0's gradient first, then slot 1's, ...
	// — a fixed float summation order regardless of which workers
	// computed which slots — then scale to the batch mean. The zero
	// skip both preserves bit-patterns (adding a zero could flip a -0
	// accumulator) and makes the sparse vidEmb rows cheap.
	inv := 1 / float64(len(idx))
	for pi, p := range tr.mParams {
		pg := p.Grad
		for b := range tr.slots {
			f64.ReduceSkip(pg, tr.sParams[b][pi].Grad)
		}
		f64.ScaleSkip(pg, inv)
	}
	var sum float64
	for _, l := range tr.losses {
		sum += l
	}
	return sum * inv
}

// embedAll computes the embedding of every sequence through lockstep
// lane tiles: each worker advances laneWidth sequences through the
// encoder together, streaming every weight row once per tile instead
// of once per sequence. Each output slot is written independently, so
// the result is bit-identical at any worker or lane count.
func (tr *trainer) embedAll(seqs []Sequence) [][]float64 {
	out := make([][]float64, len(seqs))
	dim := tr.master.cfg.Hidden
	buf := make([]float64, len(seqs)*dim)
	for i := range out {
		out[i] = buf[i*dim : (i+1)*dim]
	}
	nTiles := (len(seqs) + laneWidth - 1) / laneWidth
	workers := hwWorkers()
	if workers > nTiles {
		workers = nTiles
	}
	for len(tr.embScr) < workers {
		tr.embScr = append(tr.embScr, newEmbedTile(tr.master, tr.maxT))
	}
	tiles := make([]int, nTiles)
	for i := range tiles {
		tiles[i] = i
	}
	parallel.MapNWorker(workers, tiles, func(w, _, ti int) (struct{}, error) {
		lo := ti * laneWidth
		hi := lo + laneWidth
		if hi > len(seqs) {
			hi = len(seqs)
		}
		tr.embScr[w].run(tr.master, seqs, lo, hi, out)
		return struct{}{}, nil
	})
	return out
}

// TrainJoint implements §6.2's two-phase recipe: (1) train the
// autoencoder on reconstruction alone, (2) run K-Means on the learned
// embeddings and continue training with the joint loss, periodically
// refreshing the clustering. It returns the final clustering of the
// input sequences.
//
// Every stage runs on the parallel worker pool with bit-identical
// results at any -jobs count: per-sequence gradients reduce in fixed
// slot order before each parameter update, and embedding sweeps write
// disjoint output slots. Every sequence must be non-empty, carry a VID
// per delta, and have no negative VID.
func (m *Autoencoder) TrainJoint(seqs []Sequence, opts TrainOptions) (TrainReport, error) {
	return m.trainJoint(seqs, opts, 0)
}

// trainJoint is TrainJoint with the lockstep tile width fixed at lanes
// (1..laneWidth); lanes 0 lets tileWidth pick it from the batch and the
// host's workers. The width never changes a bit of the result, so tests
// and benchmarks pin it to reach every tile shape on any host.
func (m *Autoencoder) trainJoint(seqs []Sequence, opts TrainOptions, lanes int) (TrainReport, error) {
	if len(seqs) == 0 {
		return TrainReport{}, fmt.Errorf("nn: no training sequences")
	}
	for i, s := range seqs {
		if len(s.Deltas) == 0 {
			return TrainReport{}, fmt.Errorf("nn: training sequence %d is empty", i)
		}
		if len(s.VIDs) < len(s.Deltas) {
			return TrainReport{}, fmt.Errorf("nn: training sequence %d has %d VIDs for %d deltas", i, len(s.VIDs), len(s.Deltas))
		}
		for t, vid := range s.VIDs[:len(s.Deltas)] {
			if vid < 0 {
				return TrainReport{}, fmt.Errorf("nn: training sequence %d has negative VID %d at step %d", i, vid, t)
			}
		}
	}
	if opts.Steps <= 0 {
		opts.Steps = 400
	}
	if opts.LR <= 0 {
		opts.LR = 0.001
	}
	if opts.Lambda <= 0 {
		opts.Lambda = 0.01
	}
	if opts.K <= 0 {
		opts.K = 4
	}
	if opts.Reassign <= 0 {
		opts.Reassign = 50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	r := rand.New(rand.NewSource(opts.Seed))
	opt := NewAdam(m.Params(), opts.LR)

	maxT := 1
	for _, s := range seqs {
		if len(s.Deltas) > maxT {
			maxT = len(s.Deltas)
		}
	}
	if lanes <= 0 {
		lanes = tileWidth(opts.Batch)
	}
	tr := newTrainer(m, opts.Batch, maxT, lanes)
	idx := make([]int, opts.Batch)
	draw := func() {
		// Batch indices are drawn serially on the caller's goroutine, so
		// the RNG stream is identical at any worker count.
		for b := range idx {
			idx[b] = r.Intn(len(seqs))
		}
	}

	var report TrainReport
	report.Steps = opts.Steps
	phase1 := opts.Steps / 2

	for step := 0; step < phase1; step++ {
		draw()
		loss := tr.step(seqs, idx, nil, nil, 0)
		if step == 0 {
			report.InitialLoss = loss
		}
		opt.Step()
	}

	es := tr.embedAll(seqs)
	km, err := kmeans.Cluster(es, opts.K, kmeans.Options{Seed: opts.Seed})
	if err != nil {
		return report, err
	}

	kmFresh := true // no parameter update since the last sweep?
	for step := phase1; step < opts.Steps; step++ {
		draw()
		loss := tr.step(seqs, idx, km.Centroids, km.Assignment, opts.Lambda)
		opt.Step()
		report.FinalLoss = loss
		kmFresh = false
		if (step-phase1+1)%opts.Reassign == 0 {
			es = tr.embedAll(seqs)
			if km, err = kmeans.Cluster(es, opts.K, kmeans.Options{Seed: opts.Seed}); err != nil {
				return report, err
			}
			kmFresh = true
		}
	}
	// The final clustering re-embeds only if parameters moved since the
	// last sweep — when the last joint step coincided with a reassign,
	// recomputing would reproduce the same embeddings bit-for-bit.
	if !kmFresh {
		es = tr.embedAll(seqs)
		if km, err = kmeans.Cluster(es, opts.K, kmeans.Options{Seed: opts.Seed}); err != nil {
			return report, err
		}
	}
	report.Centroids = km.Centroids
	report.Assignment = km.Assignment
	report.ClusterLoss = km.Loss
	report.Embeddings = es
	if report.FinalLoss == 0 {
		report.FinalLoss = report.InitialLoss
	}
	return report, CheckFinite(m.Params())
}
