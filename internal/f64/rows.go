package f64

// Bulk timestep kernels: whole weight-matrix passes used by the
// lockstep trainer whenever the AVX kernels are active. The forward
// runs AxpyRows per lane; the backward runs DotRows4 over four lane
// slots — a tile narrower than four pads the rest with an all-zero
// gradient column — and defers its gradient updates into GradRowsT.
// Each is bit-identical to issuing the per-row kernels (Axpy/GradDot)
// row by row — the loops run over the same elements in the same order;
// only call overhead and, on amd64, vectorization across independent
// chains change.

// AxpyRows applies a whole timestep's forward weight rows for one
// lane: for each row i with xs[i] != 0 (the load-bearing row skip),
// dst[j] += xs[i]*w[i*width+j] with width = len(dst).
//
//sdam:noalloc
func AxpyRows(w, dst, xs []float64) {
	width := len(dst)
	if len(xs) == 0 || width == 0 {
		return
	}
	w = w[:len(xs)*width]
	if useAVX512 {
		axpyRows512(&w[0], &dst[0], &xs[0], len(xs), width)
		return
	}
	if useAsm {
		axpyRowsAVX(&w[0], &dst[0], &xs[0], len(xs), width)
		return
	}
	for i, a := range xs {
		if a == 0 {
			continue
		}
		axpyGeneric(dst, w[i*width:(i+1)*width], a)
	}
}

// GradRowsT applies `steps` deferred timesteps' weight-gradient
// updates in one pass over grad: for each row i and column j,
//
//	for s := 0; s < steps; s++ {
//	    if g := gs[s*width+j]; g != 0 {
//	        grad[i*width+j] += xs[s*rows+i] * g
//	    }
//	}
//
// with the slot order s chosen by the caller to match the order the
// per-timestep updates (GradDot's grad[j] += xi*g[j], g[j] != 0) would
// have run. Bit-identical to that sequence: every element receives the
// same adds in the same order, and holding the running sum in a
// register instead of storing it back each timestep cannot change
// rounding because each intermediate store is exact. What it does change is memory traffic — grad is
// read and written once instead of once per timestep, which is the
// difference between streaming a 32 KB matrix from L2 sixteen times
// and once per optimizer step.
//
//sdam:noalloc
func GradRowsT(grad, gs, xs []float64, rows, width, steps int) {
	if rows == 0 || width == 0 || steps == 0 {
		return
	}
	grad = grad[:rows*width]
	gs = gs[:steps*width]
	xs = xs[:steps*rows]
	if useAVX512 {
		gradRowsT512(&grad[0], &gs[0], &xs[0], rows, width, steps)
		return
	}
	if useAsm {
		gradRowsTAVX(&grad[0], &gs[0], &xs[0], rows, width, steps)
		return
	}
	for i := 0; i < rows; i++ {
		row := grad[i*width : (i+1)*width]
		for j := range row {
			acc := row[j]
			for s := 0; s < steps; s++ {
				if g := gs[s*width+j]; g != 0 {
					acc += xs[s*rows+i] * g
				}
			}
			row[j] = acc
		}
	}
}

// Interleave4 packs four equal-length vectors lane-interleaved:
// dst[4*j+k] = gk[j]. DotRows4 consumes this layout so one vector load
// fetches all four lanes' gradient at an element.
//
//sdam:noalloc
func Interleave4(dst, g0, g1, g2, g3 []float64) {
	n := len(g0)
	dst = dst[:4*n]
	g1 = g1[:n]
	g2 = g2[:n]
	g3 = g3[:n]
	for j, v := range g0 {
		dst[4*j] = v
		dst[4*j+1] = g1[j]
		dst[4*j+2] = g2[j]
		dst[4*j+3] = g3[j]
	}
}

// DotRows4 computes, for each weight row i and lane k, the serial dot
// product ok[i] = Σ_j w[i*width+j]*gk[j] over j with gk[j] != 0, in
// ascending j order — exactly the scalar GradDot association, one
// serial chain per (row, lane). g4 is the lane-interleaved gradient
// (see Interleave4); rows = len(o0).
//
//sdam:noalloc
func DotRows4(w, g4, o0, o1, o2, o3 []float64, width int) {
	rows := len(o0)
	if rows == 0 || width == 0 {
		return
	}
	w = w[:rows*width]
	g4 = g4[:4*width]
	o1 = o1[:rows]
	o2 = o2[:rows]
	o3 = o3[:rows]
	if useAVX512 {
		dotRows512(&w[0], &g4[0], &o0[0], &o1[0], &o2[0], &o3[0], rows, width)
		return
	}
	if useAsm {
		dotRows4AVX(&w[0], &g4[0], &o0[0], &o1[0], &o2[0], &o3[0], rows, width)
		return
	}
	for i := 0; i < rows; i++ {
		row := w[i*width : (i+1)*width]
		var a0, a1, a2, a3 float64
		for j, wj := range row {
			if gj := g4[4*j]; gj != 0 {
				a0 += wj * gj
			}
			if gj := g4[4*j+1]; gj != 0 {
				a1 += wj * gj
			}
			if gj := g4[4*j+2]; gj != 0 {
				a2 += wj * gj
			}
			if gj := g4[4*j+3]; gj != 0 {
				a3 += wj * gj
			}
		}
		o0[i] = a0
		o1[i] = a1
		o2[i] = a2
		o3[i] = a3
	}
}
