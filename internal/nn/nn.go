// Package nn is a small neural-network substrate written against the
// standard library only, sufficient to reproduce the paper's DL-assisted
// address-mapping selector (§6.2, Fig 9, Table 2): bit/ID embeddings, an
// LSTM encoder-decoder autoencoder, L1 reconstruction loss, a K-Means
// clustering term on the learned embedding, and Adam optimization.
//
// Layers implement explicit forward/backward passes (no tape autograd);
// each layer caches what its backward pass needs. The LSTM stacks have
// one forward/backward implementation, the lockstep lane tile
// (lockstep.go), which advances up to four batch slots together over
// internal/f64's kernels; a batch of one is a one-lane tile.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/f64"
)

// Param is one learnable tensor with its gradient and Adam state.
type Param struct {
	Name string
	W    []float64 // row-major
	Grad []float64
	m, v []float64 // Adam moments
	Rows int
	Cols int
}

// shadowParam returns a Param sharing p's weights (same backing array)
// but with a private gradient buffer. Batched training gives each batch
// slot a shadow of the model so per-sequence gradients accumulate
// independently and can be reduced in a fixed slot order; shadows carry
// no Adam state because the optimizer only ever steps the master.
func shadowParam(p *Param) *Param {
	return &Param{Name: p.Name, W: p.W, Grad: make([]float64, len(p.Grad)), Rows: p.Rows, Cols: p.Cols}
}

// NewParam allocates a rows×cols parameter initialized with the common
// scaled-uniform scheme.
func NewParam(name string, rows, cols int, r *rand.Rand) *Param {
	n := rows * cols
	p := &Param{
		Name: name, Rows: rows, Cols: cols,
		W: make([]float64, n), Grad: make([]float64, n),
		m: make([]float64, n), v: make([]float64, n),
	}
	scale := math.Sqrt(6.0 / float64(rows+cols))
	for i := range p.W {
		p.W[i] = (r.Float64()*2 - 1) * scale
	}
	return p
}

// At returns W[row][col].
func (p *Param) At(row, col int) float64 { return p.W[row*p.Cols+col] }

// AddGrad accumulates into Grad[row][col].
func (p *Param) AddGrad(row, col int, g float64) { p.Grad[row*p.Cols+col] += g }

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Adam is the Adam optimizer over a set of parameters (Table 2: learning
// rate 0.001).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	t       int
	params  []*Param
	maxNorm float64 // gradient clipping threshold; 0 disables
}

// NewAdam creates an optimizer with the paper's learning rate and
// standard betas, clipping gradients at norm 5 for LSTM stability.
func NewAdam(params []*Param, lr float64) *Adam {
	if lr <= 0 {
		lr = 0.001
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params, maxNorm: 5}
}

// Step applies one update from the accumulated gradients and clears
// them. The update is a single fused pass per tensor (f64.AdamStep):
// the clip scale is folded into the moment update instead of being
// written back to Grad first, which stores the identical g*scale
// product the two-pass form re-read — same bits, one pass, zero
// allocation. The norm itself keeps one serial accumulation chain
// threaded across tensors in parameter order, exactly as before.
//
//sdam:noalloc
func (a *Adam) Step() {
	a.t++
	scale := 1.0
	if a.maxNorm > 0 {
		var norm float64
		for _, p := range a.params {
			norm = f64.SumSquaresAcc(norm, p.Grad)
		}
		norm = math.Sqrt(norm)
		if norm > a.maxNorm {
			scale = a.maxNorm / norm
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range a.params {
		f64.AdamStep(p.W, p.Grad, p.m, p.v, scale, a.Beta1, a.Beta2, a.LR, a.Eps, bc1, bc2)
	}
}

// sigmoid and dtanh helpers shared by layers.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Linear is a dense layer y = xW + b.
type Linear struct {
	W *Param // in×out
	B *Param // 1×out
}

// NewLinear creates a dense layer.
func NewLinear(name string, in, out int, r *rand.Rand) *Linear {
	return &Linear{
		W: NewParam(name+".W", in, out, r),
		B: NewParam(name+".b", 1, out, r),
	}
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// shadow returns a Linear sharing weights with private gradients.
func (l *Linear) shadow() *Linear { return &Linear{W: shadowParam(l.W), B: shadowParam(l.B)} }

// ForwardIn computes y = xW + b into the caller's buffer (len = Cols).
// The loop nests row-major over contiguous weight rows (f64.Axpy); each
// out[j] still starts at B[j] and adds xi*W[i][j] in ascending-i order,
// so the result is bit-identical to the j-outer scalar form. No zero
// skip: the scalar loop never had one here.
func (l *Linear) ForwardIn(out, x []float64) {
	cols := l.W.Cols
	copy(out, l.B.W)
	for i, xi := range x {
		f64.Axpy(out, l.W.W[i*cols:(i+1)*cols], xi)
	}
}

// BackwardIn accumulates parameter gradients for dY, given the forward
// input x, and writes dX into the caller's buffer (len = Rows, zeroed
// here). The layer keeps no per-call state, so one layer serves every
// timestep. A nil dx accumulates parameter gradients only — the
// embedding layers' case, whose input gradient nobody consumes.
func (l *Linear) BackwardIn(dx, x, dy []float64) {
	for i := range dx {
		dx[i] = 0
	}
	// Row-major over contiguous weight rows. Each Grad element receives
	// exactly one contribution per call and each dx[i] sums row[j]*dy[j]
	// in ascending-j order — the same chain the j-outer scalar form
	// accumulated — so results are bit-identical. Unconditional: the
	// scalar loop had no zero skip here, and adding one would flip bits.
	cols := l.W.Cols
	f64.Add(l.B.Grad, dy)
	if dx == nil {
		for i, xi := range x {
			f64.Axpy(l.W.Grad[i*cols:(i+1)*cols], dy, xi)
		}
		return
	}
	for i, xi := range x {
		dx[i] = f64.AxpyDot(l.W.Grad[i*cols:(i+1)*cols], l.W.W[i*cols:(i+1)*cols], dy, xi)
	}
}

// CheckFinite returns an error if any parameter has gone non-finite —
// a training-divergence tripwire used by tests and the trainer.
func CheckFinite(params []*Param) error {
	for _, p := range params {
		for i, w := range p.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("nn: %s[%d] = %v", p.Name, i, w)
			}
		}
	}
	return nil
}
