package nn

// Retained scalar reference paths: verbatim copies of the pre-kernel
// (pre-internal/f64) loops of Linear.ForwardIn/BackwardIn, the
// per-sequence LSTM forward and backward passes, and Adam.Step. The
// differential tests below pin the hot paths — the lockstep lane
// kernels at every lane count among them — bit-for-bit against these
// references across ±0 inputs, ragged sequence lengths, and the
// clip/no-clip optimizer branches: the exactness contract DESIGN.md
// §14 argues for.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refLinearForwardIn is the original j-outer scalar loop.
func refLinearForwardIn(l *Linear, out, x []float64) {
	for j := 0; j < l.W.Cols; j++ {
		s := l.B.W[j]
		for i, xi := range x {
			s += xi * l.W.At(i, j)
		}
		out[j] = s
	}
}

// refLinearBackwardIn is the original j-outer scalar backward.
func refLinearBackwardIn(l *Linear, dx, x, dy []float64) {
	for i := range dx {
		dx[i] = 0
	}
	if dx == nil {
		for j, g := range dy {
			l.B.AddGrad(0, j, g)
			for i, xi := range x {
				l.W.AddGrad(i, j, xi*g)
			}
		}
		return
	}
	for j, g := range dy {
		l.B.AddGrad(0, j, g)
		for i, xi := range x {
			l.W.AddGrad(i, j, xi*g)
			dx[i] += l.W.At(i, j) * g
		}
	}
}

// refLSTMForwardIn is the original scalar forward pass, including the
// xw dedup snapshot and the load-bearing xi == 0 / hi == 0 row skips.
func refLSTMForwardIn(l *LSTM, st *LSTMState, xs [][]float64) [][]float64 {
	H := l.Hidden
	st.grow(len(xs))
	st.n = len(xs)
	h, c := st.h0, st.c0
	pre := st.pre
	xw := st.xw
	for t, x := range xs {
		s := &st.steps[t]
		s.x = x
		s.hPrev = h
		s.cPrev = c
		if t > 0 && len(x) > 0 && &x[0] == &xs[t-1][0] {
			copy(pre, xw)
		} else {
			copy(pre, l.B.W)
			for i, xi := range x {
				if xi == 0 {
					continue
				}
				row := l.Wx.W[i*4*H : (i+1)*4*H]
				for j, w := range row {
					pre[j] += xi * w
				}
			}
			copy(xw, pre)
		}
		for i, hi := range h {
			if hi == 0 {
				continue
			}
			row := l.Wh.W[i*4*H : (i+1)*4*H]
			for j, w := range row {
				pre[j] += hi * w
			}
		}
		for j := 0; j < H; j++ {
			s.i[j] = sigmoid(pre[j])
			s.f[j] = sigmoid(pre[H+j])
			s.g[j] = math.Tanh(pre[2*H+j])
			s.o[j] = sigmoid(pre[3*H+j])
			s.c[j] = s.f[j]*c[j] + s.i[j]*s.g[j]
			s.h[j] = s.o[j] * math.Tanh(s.c[j])
		}
		h, c = s.h, s.c
		st.outs[t] = s.h
	}
	return st.outs[:len(xs)]
}

// refLSTMBackward is the original scalar backward pass with the
// per-element g == 0 skips.
func refLSTMBackward(st *LSTMState, dH [][]float64) [][]float64 {
	l := st.lstm
	H := l.Hidden
	dxs := st.dxs[:st.n]
	dhNext, dcNext := st.dhNext, st.dcNext
	for j := 0; j < H; j++ {
		dhNext[j] = 0
		dcNext[j] = 0
	}
	dh := st.dh
	dPre := st.dPre
	dc := st.dc
	for t := st.n - 1; t >= 0; t-- {
		s := &st.steps[t]
		copy(dh, dhNext)
		if t < len(dH) && dH[t] != nil {
			for j, g := range dH[t] {
				dh[j] += g
			}
		}
		for j := 0; j < H; j++ {
			tc := math.Tanh(s.c[j])
			do := dh[j] * tc
			dc[j] = dcNext[j] + dh[j]*s.o[j]*(1-tc*tc)
			di := dc[j] * s.g[j]
			df := dc[j] * s.cPrev[j]
			dg := dc[j] * s.i[j]
			dPre[j] = di * s.i[j] * (1 - s.i[j])
			dPre[H+j] = df * s.f[j] * (1 - s.f[j])
			dPre[2*H+j] = dg * (1 - s.g[j]*s.g[j])
			dPre[3*H+j] = do * s.o[j] * (1 - s.o[j])
		}
		dx := dxs[t]
		for j, g := range dPre {
			if g != 0 {
				l.B.Grad[j] += g
			}
		}
		for i, xi := range s.x {
			row, grad := l.Wx.W[i*4*H:(i+1)*4*H], l.Wx.Grad[i*4*H:(i+1)*4*H]
			acc := 0.0
			for j, g := range dPre {
				if g == 0 {
					continue
				}
				grad[j] += xi * g
				acc += row[j] * g
			}
			dx[i] = acc
		}
		for i, hi := range s.hPrev {
			row, grad := l.Wh.W[i*4*H:(i+1)*4*H], l.Wh.Grad[i*4*H:(i+1)*4*H]
			acc := 0.0
			for j, g := range dPre {
				if g == 0 {
					continue
				}
				grad[j] += hi * g
				acc += row[j] * g
			}
			dhNext[i] = acc
		}
		for j := 0; j < H; j++ {
			dcNext[j] = dc[j] * s.f[j]
		}
	}
	return dxs
}

// refAdamStep is the original two-pass optimizer: clip scale written
// back to Grad, then a separate moment/weight pass, then ZeroGrad.
func refAdamStep(a *Adam) {
	a.t++
	if a.maxNorm > 0 {
		var norm float64
		for _, p := range a.params {
			for _, g := range p.Grad {
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.maxNorm {
			scale := a.maxNorm / norm
			for _, p := range a.params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range a.params {
		for i, g := range p.Grad {
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*g
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*g*g
			mHat := p.m[i] / bc1
			vHat := p.v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// seasonedVec fills a vector with mixed magnitudes seasoned with +0 and
// -0 entries, the inputs the zero skips care about.
func seasonedVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(5)-2))
		}
	}
	return v
}

func cloneParam(p *Param) *Param {
	q := &Param{Name: p.Name, Rows: p.Rows, Cols: p.Cols,
		W:    append([]float64(nil), p.W...),
		Grad: append([]float64(nil), p.Grad...),
	}
	if p.m != nil {
		q.m = append([]float64(nil), p.m...)
		q.v = append([]float64(nil), p.v...)
	}
	return q
}

func cloneLinear(l *Linear) *Linear {
	return &Linear{W: cloneParam(l.W), B: cloneParam(l.B)}
}

func cloneLSTM(l *LSTM) *LSTM {
	return &LSTM{In: l.In, Hidden: l.Hidden,
		Wx: cloneParam(l.Wx), Wh: cloneParam(l.Wh), B: cloneParam(l.B)}
}

func bitsEq(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x) want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestLinearForwardMatchesScalarRef(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {16, 32}, {33, 5}} {
		l := NewLinear("lin", dims[0], dims[1], r)
		x := seasonedVec(r, dims[0])
		got := make([]float64, dims[1])
		want := make([]float64, dims[1])
		l.ForwardIn(got, x)
		refLinearForwardIn(l, want, x)
		bitsEq(t, "out", got, want)
	}
}

func TestLinearBackwardMatchesScalarRef(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {16, 32}, {33, 5}} {
		l := NewLinear("lin", dims[0], dims[1], r)
		ref := cloneLinear(l)
		x := seasonedVec(r, dims[0])
		dy := seasonedVec(r, dims[1])
		got := make([]float64, dims[0])
		want := make([]float64, dims[0])
		l.BackwardIn(got, x, dy)
		refLinearBackwardIn(ref, want, x, dy)
		bitsEq(t, "dx", got, want)
		bitsEq(t, "W.Grad", l.W.Grad, ref.W.Grad)
		bitsEq(t, "B.Grad", l.B.Grad, ref.B.Grad)

		// nil-dx branch (the embedding layers' case).
		l.BackwardIn(nil, x, dy)
		refLinearBackwardIn(ref, nil, x, dy)
		bitsEq(t, "W.Grad nil-dx", l.W.Grad, ref.W.Grad)
		bitsEq(t, "B.Grad nil-dx", l.B.Grad, ref.B.Grad)
	}
}

// lstmSeq builds a sequence of T input rows; when repeat is true every
// row aliases the first, exercising the xw dedup snapshot path.
func lstmSeq(r *rand.Rand, T, in int, repeat bool) [][]float64 {
	xs := make([][]float64, T)
	first := seasonedVec(r, in)
	for t := range xs {
		if repeat && t > 0 {
			xs[t] = first
		} else if t == 0 {
			xs[t] = first
		} else {
			xs[t] = seasonedVec(r, in)
		}
	}
	return xs
}

// laneForward runs one LSTM layer over xs as a one-lane lockstep tile,
// returning the state and the per-step hidden vectors.
func laneForward(l *LSTM, xs [][]float64) (*LSTMState, [][]float64) {
	st := l.NewState(len(xs))
	laneLSTMForward(l, []*LSTMState{st}, [][][]float64{xs})
	return st, st.outs[:st.n]
}

// laneBackward backpropagates dH through a one-lane state, accumulating
// into its LSTM's gradients, and returns the per-step input gradients.
func laneBackward(st *LSTMState, dH [][]float64) [][]float64 {
	laneLSTMBackward([]*LSTMState{st}, [][][]float64{dH}, &laneScratch{})
	return st.dxs[:st.n]
}

// TestLSTMForwardBackwardMatchesScalarRef runs 1-4 lanes of one LSTM
// layer in lockstep and pins every lane bit-for-bit against the scalar
// referee run on that lane alone: equal lengths, ragged lengths (a lane
// past its own length rides along as a pad lane), and the decoder's
// repeated input row (the xw dedup).
func TestLSTMForwardBackwardMatchesScalarRef(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name       string
		in, hidden int
		lens       []int // per-lane sequence length, for four lanes
		repeat     bool
	}{
		{"equal", 16, 32, []int{16, 16, 16, 16}, false},
		{"equal-odd", 5, 3, []int{7, 7, 7, 7}, false},
		{"ragged", 16, 32, []int{9, 16, 1, 12}, false},
		{"ragged-odd", 5, 3, []int{7, 2, 5, 3}, false},
		{"repeat", 16, 32, []int{16, 16, 16, 16}, true}, // decoder-style
		{"repeat-ragged", 16, 32, []int{5, 16, 11, 8}, true},
	} {
		// One scratch serves every lane count, widest first, so the
		// padded narrow tiles run on buffers a four-lane tile has
		// already filled. The discard row is sized up front so it can
		// be poisoned before each backward.
		lsc := &laneScratch{discard: make([]float64, max(tc.in, tc.hidden))}
		for n := laneWidth; n >= 1; n-- {
			l := NewLSTM("lstm", tc.in, tc.hidden, r)
			sts := make([]*LSTMState, n)
			refs := make([]*LSTM, n)
			xss := make([][][]float64, n)
			for k := range sts {
				T := tc.lens[k]
				sts[k] = l.shadow().NewState(T) // shared W, private Grad
				refs[k] = cloneLSTM(l)
				xss[k] = lstmSeq(r, T, tc.in, tc.repeat)
			}
			laneLSTMForward(l, sts, xss)

			dHs := make([][][]float64, n)
			for k := range dHs {
				dHs[k] = make([][]float64, tc.lens[k])
				for tt := range dHs[k] {
					if tt%3 == 2 {
						continue // nil entries: zero hidden gradient at this step
					}
					dHs[k][tt] = seasonedVec(r, tc.hidden)
				}
			}
			for i := range lsc.discard {
				lsc.discard[i] = math.NaN()
			}
			laneLSTMBackward(sts, dHs, lsc)
			// A padded tile's pad lanes, and on ragged inputs the lanes
			// past their own length, read an all-zero dPre column, so
			// every dot they wrote to the discard row is +0.
			if n < laneWidth || slices.Min(tc.lens[:n]) < slices.Max(tc.lens[:n]) {
				for i, v := range lsc.discard {
					if math.Float64bits(v) != 0 {
						t.Fatalf("%s lanes=%d: discarded dot %d is %v, want +0", tc.name, n, i, v)
					}
				}
			}

			for k, st := range sts {
				where := fmt.Sprintf("%s lanes=%d lane=%d", tc.name, n, k)
				ref := refs[k]
				stRef := ref.NewState(tc.lens[k])
				outsRef := refLSTMForwardIn(ref, stRef, xss[k])
				for tt := range outsRef {
					bitsEq(t, where+" h", st.outs[tt], outsRef[tt])
				}
				dxsRef := refLSTMBackward(stRef, dHs[k])
				for tt := range dxsRef {
					bitsEq(t, where+" dx", st.dxs[tt], dxsRef[tt])
				}
				bitsEq(t, where+" Wx.Grad", st.lstm.Wx.Grad, ref.Wx.Grad)
				bitsEq(t, where+" Wh.Grad", st.lstm.Wh.Grad, ref.Wh.Grad)
				bitsEq(t, where+" B.Grad", st.lstm.B.Grad, ref.B.Grad)
			}
		}
	}
}

func TestAdamStepMatchesScalarRef(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	build := func() []*Param {
		return []*Param{
			NewParam("a", 4, 8, r),
			NewParam("b", 1, 8, r),
			NewParam("c", 16, 4, r),
		}
	}
	// gradScale 1e-3 keeps the norm under maxNorm (unclipped path);
	// 1e3 forces the clip. Both paths must match the two-pass scalar
	// reference bit for bit across several consecutive steps (the bias
	// correction depends on t).
	for _, gradScale := range []float64{1e-3, 1e3} {
		ps := build()
		var refPs []*Param
		for _, p := range ps {
			refPs = append(refPs, cloneParam(p))
		}
		opt := NewAdam(ps, 0.001)
		refOpt := NewAdam(refPs, 0.001)
		for step := 0; step < 3; step++ {
			for k, p := range ps {
				g := seasonedVec(r, len(p.Grad))
				for i := range g {
					g[i] *= gradScale
				}
				copy(p.Grad, g)
				copy(refPs[k].Grad, g)
			}
			opt.Step()
			refAdamStep(refOpt)
			for k, p := range ps {
				bitsEq(t, p.Name+".W", p.W, refPs[k].W)
				bitsEq(t, p.Name+".m", p.m, refPs[k].m)
				bitsEq(t, p.Name+".v", p.v, refPs[k].v)
				bitsEq(t, p.Name+".Grad", p.Grad, refPs[k].Grad)
			}
		}
	}
}

// TestAdamStepZeroAlloc pins the fused optimizer's zero-allocation
// contract (//sdam:noalloc) at runtime.
func TestAdamStepZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	ps := []*Param{NewParam("a", 8, 16, r), NewParam("b", 1, 16, r)}
	opt := NewAdam(ps, 0.001)
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range ps {
			for i := range p.Grad {
				p.Grad[i] = float64(i%7) * 1e-3
			}
		}
		opt.Step()
	})
	if allocs != 0 {
		t.Fatalf("Adam.Step allocated %.1f times per run; want 0", allocs)
	}
}
