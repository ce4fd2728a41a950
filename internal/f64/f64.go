// Package f64 is the repository's dense float64 kernel layer: the
// unrolled, bounds-check-eliminated, lane-fused inner loops the DL
// selector's training hot path runs on (DESIGN.md §14).
//
// Every kernel is exactness-pinned: it performs the same floating-point
// operations, in the same per-element order, as the scalar loop it
// replaced in internal/nn — reslicing only hoists bounds checks, and
// lane fusion only interleaves *independent* per-lane operation chains
// so each output element keeps one serial owner with an unchanged
// accumulation order. The load-bearing zero skips (`g == 0` in the
// gradient kernels) are preserved verbatim: adding a zero could flip a
// -0 accumulator to +0, so a skip removed or added would change bits.
//
// The multi-lane variants (Axpy2..Axpy4, GradDot2..GradDot4) stream the
// shared row operand once across all lanes. That is the arithmetic-
// intensity win of the lockstep trainer: a weight row loaded once feeds
// up to four independent fused-multiply-add chains instead of being
// re-streamed per sequence.
//
// Kernels never allocate (//sdam:noalloc; pinned by AllocsPerRun
// tests) and are written against the standard library only.
package f64

import "math"

// Axpy computes dst[j] += a*x[j] over len(dst) elements. Unconditional:
// callers that need the forward pass's a == 0 row skip hoist it (the
// skip is per row, not per element).
//
//sdam:noalloc
func Axpy(dst, x []float64, a float64) {
	if useAsm && len(dst) > 0 {
		x = x[:len(dst)]
		axpyAVX(&dst[0], &x[0], a, len(dst))
		return
	}
	axpyGeneric(dst, x, a)
}

//sdam:noalloc
func axpyGeneric(dst, x []float64, a float64) {
	x = x[:len(dst)]
	j := 0
	for ; j+3 < len(dst); j += 4 {
		dst[j] += a * x[j]
		dst[j+1] += a * x[j+1]
		dst[j+2] += a * x[j+2]
		dst[j+3] += a * x[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += a * x[j]
	}
}

// Axpy2 is Axpy fused over two lanes sharing one x stream: each x[j] is
// loaded once and feeds both lanes' independent accumulation chains.
//
//sdam:noalloc
func Axpy2(d0, d1, x []float64, a0, a1 float64) {
	n := len(x)
	d0 = d0[:n]
	d1 = d1[:n]
	for j, w := range x {
		d0[j] += a0 * w
		d1[j] += a1 * w
	}
}

// Axpy3 is Axpy fused over three lanes.
//
//sdam:noalloc
func Axpy3(d0, d1, d2, x []float64, a0, a1, a2 float64) {
	n := len(x)
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	for j, w := range x {
		d0[j] += a0 * w
		d1[j] += a1 * w
		d2[j] += a2 * w
	}
}

// Axpy4 is Axpy fused over four lanes — a full lockstep tile on the
// trainer's pure-Go forward path.
//
//sdam:noalloc
func Axpy4(d0, d1, d2, d3, x []float64, a0, a1, a2, a3 float64) {
	n := len(x)
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	d3 = d3[:n]
	for j, w := range x {
		d0[j] += a0 * w
		d1[j] += a1 * w
		d2[j] += a2 * w
		d3[j] += a3 * w
	}
}

// Add computes dst[j] += x[j] element-wise, unconditionally (the
// gradient fan-in of decoder steps into dh adds zeros too, exactly as
// the scalar loop did).
//
//sdam:noalloc
func Add(dst, x []float64) {
	if useAsm && len(dst) > 0 {
		x = x[:len(dst)]
		addAVX(&dst[0], &x[0], len(dst))
		return
	}
	x = x[:len(dst)]
	j := 0
	for ; j+3 < len(dst); j += 4 {
		dst[j] += x[j]
		dst[j+1] += x[j+1]
		dst[j+2] += x[j+2]
		dst[j+3] += x[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += x[j]
	}
}

// AddSkip computes dst[j] += x[j] skipping x[j] == 0 — the bias-grad
// accumulation, whose zero skip both preserves -0 accumulator bits and
// keeps sparse gradients cheap.
//
//sdam:noalloc
func AddSkip(dst, x []float64) {
	if useAsm && len(dst) > 0 {
		x = x[:len(dst)]
		addSkipAVX(&dst[0], &x[0], len(dst))
		return
	}
	x = x[:len(dst)]
	for j, g := range x {
		if g != 0 {
			dst[j] += g
		}
	}
}

// ReduceSkip adds src into dst (skipping zeros) and clears src — one
// slot's contribution to the batched trainer's fixed-order gradient
// reduction.
//
//sdam:noalloc
func ReduceSkip(dst, src []float64) {
	if useAsm && len(dst) > 0 {
		src = src[:len(dst)]
		reduceSkipAVX(&dst[0], &src[0], len(dst))
		return
	}
	src = src[:len(dst)]
	for j, g := range src {
		if g != 0 {
			dst[j] += g
			src[j] = 0
		}
	}
}

// ScaleSkip computes dst[j] *= a skipping zeros — the batch-mean scale
// of the reduced gradient.
//
//sdam:noalloc
func ScaleSkip(dst []float64, a float64) {
	if useAsm && len(dst) > 0 {
		scaleSkipAVX(&dst[0], a, len(dst))
		return
	}
	for j, g := range dst {
		if g != 0 {
			dst[j] = g * a
		}
	}
}

// Mul computes dst[j] = a[j] * b[j] — the backward pass's carry
// dcNext = dc ⊙ f.
//
//sdam:noalloc
func Mul(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	if useAsm && len(dst) > 0 {
		mulAVX(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	for j := range dst {
		dst[j] = a[j] * b[j]
	}
}

// AxpyDot fuses the dense layer's backward row update: grad[j] +=
// xi*dy[j] and acc += row[j]*dy[j] over one weight row, returning acc
// (the input gradient element). Unconditional — Linear's scalar
// backward had no zero skip, so the kernel must not introduce one.
//
//sdam:noalloc
func AxpyDot(grad, row, dy []float64, xi float64) float64 {
	n := len(dy)
	grad = grad[:n]
	row = row[:n]
	var acc float64
	for j, g := range dy {
		grad[j] += xi * g
		acc += row[j] * g
	}
	return acc
}

// GradDot is the LSTM backward row kernel: for each j with dPre[j] != 0
// it accumulates grad[j] += xi*dPre[j] and acc += row[j]*dPre[j],
// returning acc. The per-element zero skip is load-bearing: it matches
// the scalar loop bit for bit (adding a zero could flip a -0
// accumulator) and keeps sparse gradient vectors cheap.
//
//sdam:noalloc
func GradDot(grad, row, g []float64, xi float64) float64 {
	n := len(g)
	grad = grad[:n]
	row = row[:n]
	var acc float64
	for j, gj := range g {
		if gj == 0 {
			continue
		}
		grad[j] += xi * gj
		acc += row[j] * gj
	}
	return acc
}

// GradDot2 is GradDot fused over two lanes sharing one weight-row
// stream. Each lane keeps its own gradient buffer, dPre vector, scale,
// and accumulator, so its operation chain is untouched.
//
//sdam:noalloc
func GradDot2(grad0, grad1, row, g0, g1 []float64, xi0, xi1 float64) (float64, float64) {
	n := len(row)
	grad0 = grad0[:n]
	grad1 = grad1[:n]
	g0 = g0[:n]
	g1 = g1[:n]
	var acc0, acc1 float64
	for j, w := range row {
		if gj := g0[j]; gj != 0 {
			grad0[j] += xi0 * gj
			acc0 += w * gj
		}
		if gj := g1[j]; gj != 0 {
			grad1[j] += xi1 * gj
			acc1 += w * gj
		}
	}
	return acc0, acc1
}

// GradDot3 is GradDot fused over three lanes.
//
//sdam:noalloc
func GradDot3(grad0, grad1, grad2, row, g0, g1, g2 []float64, xi0, xi1, xi2 float64) (float64, float64, float64) {
	n := len(row)
	grad0 = grad0[:n]
	grad1 = grad1[:n]
	grad2 = grad2[:n]
	g0 = g0[:n]
	g1 = g1[:n]
	g2 = g2[:n]
	var acc0, acc1, acc2 float64
	for j, w := range row {
		if gj := g0[j]; gj != 0 {
			grad0[j] += xi0 * gj
			acc0 += w * gj
		}
		if gj := g1[j]; gj != 0 {
			grad1[j] += xi1 * gj
			acc1 += w * gj
		}
		if gj := g2[j]; gj != 0 {
			grad2[j] += xi2 * gj
			acc2 += w * gj
		}
	}
	return acc0, acc1, acc2
}

// GradDot4 is GradDot fused over four lanes — a full lockstep tile on
// the trainer's gather backward (pure-Go hosts and ragged timesteps).
//
//sdam:noalloc
func GradDot4(grad0, grad1, grad2, grad3, row, g0, g1, g2, g3 []float64, xi0, xi1, xi2, xi3 float64) (float64, float64, float64, float64) {
	n := len(row)
	grad0 = grad0[:n]
	grad1 = grad1[:n]
	grad2 = grad2[:n]
	grad3 = grad3[:n]
	g0 = g0[:n]
	g1 = g1[:n]
	g2 = g2[:n]
	g3 = g3[:n]
	var acc0, acc1, acc2, acc3 float64
	for j, w := range row {
		if gj := g0[j]; gj != 0 {
			grad0[j] += xi0 * gj
			acc0 += w * gj
		}
		if gj := g1[j]; gj != 0 {
			grad1[j] += xi1 * gj
			acc1 += w * gj
		}
		if gj := g2[j]; gj != 0 {
			grad2[j] += xi2 * gj
			acc2 += w * gj
		}
		if gj := g3[j]; gj != 0 {
			grad3[j] += xi3 * gj
			acc3 += w * gj
		}
	}
	return acc0, acc1, acc2, acc3
}

// SumSquaresAcc extends the running accumulator acc with Σ xs[j]² in
// ascending-index order. The accumulator threads through so a multi-
// tensor norm keeps one global serial summation chain — splitting it
// into per-tensor subtotals would change the rounding.
//
//sdam:noalloc
func SumSquaresAcc(acc float64, xs []float64) float64 {
	for _, x := range xs {
		acc += x * x
	}
	return acc
}

// AdamStep is the fused optimizer kernel: one pass folding the
// gradient-norm clip (pre-computed scale), the first/second moment
// updates, the bias-corrected weight write, and the gradient clear.
// scale == 1 leaves gradients bit-untouched (the unclipped path);
// otherwise g*scale reproduces exactly the value the two-pass scalar
// code stored and re-read.
//
//sdam:noalloc
func AdamStep(w, grad, m, v []float64, scale, beta1, beta2, lr, eps, bc1, bc2 float64) {
	n := len(w)
	grad = grad[:n]
	m = m[:n]
	v = v[:n]
	c1 := 1 - beta1
	c2 := 1 - beta2
	if useAsm && n > 0 {
		if scale != 1 {
			// Pre-scaling in place stores exactly the g*scale value the
			// fused loop would use; grad is cleared below either way.
			scaleAVX(&grad[0], scale, n)
		}
		if useAVX512 {
			adamStep512(&w[0], &grad[0], &m[0], &v[0], n, beta1, c1, beta2, c2, lr, eps, bc1, bc2)
		} else {
			adamStepAVX(&w[0], &grad[0], &m[0], &v[0], n, beta1, c1, beta2, c2, lr, eps, bc1, bc2)
		}
		return
	}
	for i := range w {
		g := grad[i]
		if scale != 1 {
			g *= scale
		}
		mi := beta1*m[i] + c1*g
		vi := beta2*v[i] + c2*g*g
		m[i] = mi
		v[i] = vi
		mHat := mi / bc1
		vHat := vi / bc2
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
		grad[i] = 0
	}
}

// sigmoid matches internal/nn's definition expression for expression,
// so gate kernels reproduce its bits exactly.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// LSTMGates applies one timestep's gate nonlinearities and state
// update: given the pre-activations (layout [input|forget|cell|output],
// each H wide) and the previous cell state, it fills the post-
// nonlinearity gate vectors ig/fg/gg/og and the new cell/hidden states.
// math.Exp/math.Tanh calls are exactly the scalar loop's. tc receives
// tanh(c) — the forward pass computes it for h anyway, and caching it
// lets the backward kernel reuse the identical bits instead of
// recomputing the tanh.
//
//sdam:noalloc
func LSTMGates(ig, fg, gg, og, c, h, tc, pre, cPrev []float64) {
	H := len(ig)
	p0 := pre[0*H : 1*H]
	p1 := pre[1*H : 2*H]
	p2 := pre[2*H : 3*H]
	p3 := pre[3*H : 4*H]
	fg = fg[:H]
	gg = gg[:H]
	og = og[:H]
	c = c[:H]
	h = h[:H]
	tc = tc[:H]
	cPrev = cPrev[:H]
	j0 := 0
	if useAsm && H >= 4 {
		// The vector path writes ig..og, c, tc for a leading multiple of
		// four elements (bailing to scalar on out-of-domain inputs); h is
		// filled afterwards from the stored og/tc, which are bitwise the
		// values the scalar loop's oj*tcj multiply reads.
		j0 = lstmGates4(&ig[0], &fg[0], &gg[0], &og[0], &c[0], &tc[0], &pre[0], &cPrev[0], H)
		Mul(h[:j0], og[:j0], tc[:j0])
	}
	for j := j0; j < H; j++ {
		ij := sigmoid(p0[j])
		fj := sigmoid(p1[j])
		gj := math.Tanh(p2[j])
		oj := sigmoid(p3[j])
		cj := fj*cPrev[j] + ij*gj
		ig[j] = ij
		fg[j] = fj
		gg[j] = gj
		og[j] = oj
		c[j] = cj
		tcj := math.Tanh(cj)
		tc[j] = tcj
		h[j] = oj * tcj
	}
}

// LSTMGateBackward is the per-timestep gate backward kernel: from the
// incoming hidden gradient dh and the next step's cell carry dcNext it
// fills the pre-activation gradient dPre (4H) and this step's cell
// gradient dc (H), reproducing the scalar loop's expressions verbatim.
// tc is the forward pass's cached tanh(c): math.Tanh is deterministic,
// so reusing the stored value yields exactly the bits the scalar
// backward recomputed.
//
//sdam:noalloc
func LSTMGateBackward(dPre, dc, dh, dcNext, ig, fg, gg, og, tc, cPrev []float64) {
	H := len(dh)
	d0 := dPre[0*H : 1*H]
	d1 := dPre[1*H : 2*H]
	d2 := dPre[2*H : 3*H]
	d3 := dPre[3*H : 4*H]
	dc = dc[:H]
	dcNext = dcNext[:H]
	ig = ig[:H]
	fg = fg[:H]
	gg = gg[:H]
	og = og[:H]
	tc = tc[:H]
	cPrev = cPrev[:H]
	for j := range dh {
		tcj := tc[j]
		do := dh[j] * tcj
		dcj := dcNext[j] + dh[j]*og[j]*(1-tcj*tcj)
		di := dcj * gg[j]
		df := dcj * cPrev[j]
		dg := dcj * ig[j]
		dc[j] = dcj
		d0[j] = di * ig[j] * (1 - ig[j])
		d1[j] = df * fg[j] * (1 - fg[j])
		d2[j] = dg * (1 - gg[j]*gg[j])
		d3[j] = do * og[j] * (1 - og[j])
	}
}
