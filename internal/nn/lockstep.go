package nn

// Lockstep lane-fused training (DESIGN.md §14), the package's only LSTM
// forward/backward implementation. A lane tile advances up to laneWidth
// batch slots through the network together, timestep by timestep:
// every Wx/Wh weight row is loaded once per timestep and feeds all
// lanes' independent fused-multiply-add chains (f64.Axpy4 /
// f64.GradDot4). That multiplies the arithmetic intensity of the
// memory-bound GEMV loops by the lane count and converts batch
// parallelism into instruction-level parallelism. A batch of one is a
// one-lane tile.
//
// Exactness: fusion only interleaves *independent* per-lane operation
// chains. Each lane keeps its own pre-activation, gate, gradient, and
// accumulator buffers, and within a lane every element still receives
// its contributions in exactly the scalar order (ascending i, with the
// load-bearing xi == 0 / g == 0 skips applied per lane). Each output
// element has one serial owner, so every lane is bit-identical to the
// scalar referee in ref_test.go at any lane count, batch size, or -jobs
// setting. Ragged sequence lengths are handled by per-lane activity
// masks: a lane simply stops participating past its own T.

import (
	"runtime"

	"repro/internal/f64"
	"repro/internal/parallel"
)

// laneWidth is the maximum number of batch lanes fused through one
// weight-row stream — matching the widest f64 kernels (Axpy4/GradDot4).
const laneWidth = 4

// hwWorkers returns the number of OS-parallel workers worth spawning:
// the configured job count clamped to the machine's usable cores.
// Tiling and worker counts never affect results (each lane's chain is
// independent), only scheduling.
func hwWorkers() int {
	w := parallel.Jobs()
	if mp := runtime.GOMAXPROCS(0); w > mp {
		w = mp
	}
	if w < 1 {
		w = 1
	}
	return w
}

// tileWidth picks the lane count per tile for a batch: cores are filled
// first (tiles = workers), then leftover batch width is fused into
// lanes, clamped to the kernels' laneWidth.
func tileWidth(batch int) int {
	w := (batch + hwWorkers() - 1) / hwWorkers()
	if w > laneWidth {
		w = laneWidth
	}
	if w < 1 {
		w = 1
	}
	return w
}

// axpyN dispatches one weight row to m fused lanes.
//
//sdam:noalloc
func axpyN(ds *[laneWidth][]float64, row []float64, as *[laneWidth]float64, m int) {
	switch m {
	case 1:
		f64.Axpy(ds[0], row, as[0])
	case 2:
		f64.Axpy2(ds[0], ds[1], row, as[0], as[1])
	case 3:
		f64.Axpy3(ds[0], ds[1], ds[2], row, as[0], as[1], as[2])
	case 4:
		f64.Axpy4(ds[0], ds[1], ds[2], ds[3], row, as[0], as[1], as[2], as[3])
	}
}

// laneLSTMForward runs up to laneWidth lanes of one LSTM layer in
// lockstep. All lanes share the layer's weights (l); each lane's state
// carries its own scratch, so per-lane math is exactly the scalar
// referee's (refLSTMForwardIn in ref_test.go).
func laneLSTMForward(l *LSTM, sts []*LSTMState, xss [][][]float64) {
	H := l.Hidden
	n := len(sts)
	accel := f64.Accelerated()
	maxT := 0
	var h, c [laneWidth][]float64
	for k := 0; k < n; k++ {
		T := len(xss[k])
		sts[k].grow(T)
		sts[k].n = T
		if T > maxT {
			maxT = T
		}
		h[k], c[k] = sts[k].h0, sts[k].c0
	}
	for t := 0; t < maxT; t++ {
		// Per-lane pre-activation init, with the xw dedup: a lane
		// whose input row aliases its previous step's row (the decoder's
		// conditioning-by-repetition) replays the snapshotted B + x·Wx.
		var fresh [laneWidth]bool
		for k := 0; k < n; k++ {
			if t >= len(xss[k]) {
				continue
			}
			x := xss[k][t]
			st := sts[k]
			s := &st.steps[t]
			s.x, s.hPrev, s.cPrev = x, h[k], c[k]
			if t > 0 && len(x) > 0 && &x[0] == &xss[k][t-1][0] {
				copy(st.pre, st.xw)
			} else {
				copy(st.pre, l.B.W)
				fresh[k] = true
			}
		}
		// Wx phase: apply the weight rows to every fresh lane, keeping
		// the load-bearing per-lane xi == 0 row skip. With the AVX
		// kernels active each lane runs one vectorized whole-matrix pass
		// (f64.AxpyRows, bit-identical to the per-row kernels); otherwise
		// each row is streamed once across the fresh lanes with the
		// lane-fused Go kernels.
		var ds [laneWidth][]float64
		var as [laneWidth]float64
		if accel {
			for k := 0; k < n; k++ {
				if fresh[k] {
					f64.AxpyRows(l.Wx.W, sts[k].pre, xss[k][t])
				}
			}
		} else {
			for i := 0; i < l.In; i++ {
				m := 0
				for k := 0; k < n; k++ {
					if !fresh[k] {
						continue
					}
					if xi := xss[k][t][i]; xi != 0 {
						ds[m], as[m] = sts[k].pre, xi
						m++
					}
				}
				if m > 0 {
					axpyN(&ds, l.Wx.W[i*4*H:(i+1)*4*H], &as, m)
				}
			}
		}
		for k := 0; k < n; k++ {
			if fresh[k] {
				copy(sts[k].xw, sts[k].pre)
			}
		}
		// Wh phase: same structure over the recurrent rows, hi == 0 skip
		// per lane.
		if accel {
			for k := 0; k < n; k++ {
				if t >= len(xss[k]) {
					continue
				}
				f64.AxpyRows(l.Wh.W, sts[k].pre, h[k])
			}
		} else {
			for i := 0; i < H; i++ {
				m := 0
				for k := 0; k < n; k++ {
					if t >= len(xss[k]) {
						continue
					}
					if hi := h[k][i]; hi != 0 {
						ds[m], as[m] = sts[k].pre, hi
						m++
					}
				}
				if m > 0 {
					axpyN(&ds, l.Wh.W[i*4*H:(i+1)*4*H], &as, m)
				}
			}
		}
		for k := 0; k < n; k++ {
			if t >= len(xss[k]) {
				continue
			}
			st := sts[k]
			s := &st.steps[t]
			f64.LSTMGates(s.i, s.f, s.g, s.o, s.c, s.h, s.tc, st.pre, c[k])
			h[k], c[k] = s.h, s.c
			st.outs[t] = s.h
		}
	}
}

// gradDotN dispatches one weight row to m fused backward lanes, writing
// each lane's accumulated row·dPre dot into *outs[m][i].
//
//sdam:noalloc
func gradDotN(grads *[laneWidth][]float64, row []float64, gs *[laneWidth][]float64, xis *[laneWidth]float64, dsts *[laneWidth]*float64, m int) {
	switch m {
	case 1:
		*dsts[0] = f64.GradDot(grads[0], row, gs[0], xis[0])
	case 2:
		a0, a1 := f64.GradDot2(grads[0], grads[1], row, gs[0], gs[1], xis[0], xis[1])
		*dsts[0], *dsts[1] = a0, a1
	case 3:
		a0, a1, a2 := f64.GradDot3(grads[0], grads[1], grads[2], row, gs[0], gs[1], gs[2], xis[0], xis[1], xis[2])
		*dsts[0], *dsts[1], *dsts[2] = a0, a1, a2
	case 4:
		a0, a1, a2, a3 := f64.GradDot4(grads[0], grads[1], grads[2], grads[3], row, gs[0], gs[1], gs[2], gs[3], xis[0], xis[1], xis[2], xis[3])
		*dsts[0], *dsts[1], *dsts[2], *dsts[3] = a0, a1, a2, a3
	}
}

// laneLSTMBackward runs up to laneWidth lanes of one LSTM layer's BPTT
// in lockstep. Weight rows are shared across lanes (shadow params alias
// the master's W); each lane accumulates into its own Grad buffers, so
// every gradient element keeps one serial owner.
func laneLSTMBackward(sts []*LSTMState, dHs [][][]float64, lsc *laneScratch) {
	n := len(sts)
	l0 := sts[0].lstm
	H := l0.Hidden
	maxT := 0
	minT := sts[0].n
	for k := 0; k < n; k++ {
		st := sts[k]
		for j := 0; j < H; j++ {
			st.dhNext[j] = 0
			st.dcNext[j] = 0
		}
		if st.n > maxT {
			maxT = st.n
		}
		if st.n < minT {
			minT = st.n
		}
	}
	// The dense fast path runs full laneWidth groups through the bulk
	// whole-matrix kernels: dPre is packed lane-interleaved once per
	// timestep, the gradient updates run as one vectorized pass per
	// lane, and the four lanes' serial dot chains advance together in
	// f64.DotRows4 — all bit-identical to the per-row GradDot kernels.
	dense := f64.Accelerated() && n == laneWidth
	S := minT
	if dense {
		if cap(lsc.aos) < laneWidth*4*H {
			lsc.aos = make([]float64, laneWidth*4*H)
		}
		// Deferred-gradient save areas: lane k's slot s holds timestep
		// t = minT-1-s, so ascending slots replay the backward pass's
		// descending-t order inside f64.GradRowsT.
		if need := laneWidth * S * 4 * H; cap(lsc.gsave) < need {
			lsc.gsave = make([]float64, need)
		}
		if need := laneWidth * S * l0.In; cap(lsc.xsave) < need {
			lsc.xsave = make([]float64, need)
		}
		if need := laneWidth * S * H; cap(lsc.hsave) < need {
			lsc.hsave = make([]float64, need)
		}
	}
	aos := lsc.aos[:cap(lsc.aos)]
	var grads, gs [laneWidth][]float64
	var xis [laneWidth]float64
	var dsts [laneWidth]*float64
	for t := maxT - 1; t >= 0; t-- {
		var act [laneWidth]bool
		for k := 0; k < n; k++ {
			st := sts[k]
			if t >= st.n {
				continue
			}
			act[k] = true
			s := &st.steps[t]
			copy(st.dh, st.dhNext)
			if t < len(dHs[k]) && dHs[k][t] != nil {
				f64.Add(st.dh, dHs[k][t])
			}
			f64.LSTMGateBackward(st.dPre, st.dc, st.dh, st.dcNext, s.i, s.f, s.g, s.o, s.tc, s.cPrev)
			f64.AddSkip(st.lstm.B.Grad, st.dPre)
		}
		if dense && t < minT {
			st0, st1, st2, st3 := sts[0], sts[1], sts[2], sts[3]
			f64.Interleave4(aos, st0.dPre, st1.dPre, st2.dPre, st3.dPre)
			// The gradient updates and the dot products touch disjoint
			// arrays (Grad vs W), so splitting GradDot's fused loop off
			// leaves every element's contribution order unchanged. The
			// updates themselves are deferred: stash this timestep's
			// dPre and inputs, and apply all of them in one pass over
			// each Grad matrix after the loop (f64.GradRowsT).
			s := minT - 1 - t
			for k := 0; k < n; k++ {
				st := sts[k]
				copy(lsc.gsave[(k*S+s)*4*H:(k*S+s+1)*4*H], st.dPre)
				copy(lsc.xsave[(k*S+s)*l0.In:(k*S+s+1)*l0.In], st.steps[t].x)
				copy(lsc.hsave[(k*S+s)*H:(k*S+s+1)*H], st.steps[t].hPrev)
			}
			f64.DotRows4(l0.Wx.W, aos, st0.dxs[t], st1.dxs[t], st2.dxs[t], st3.dxs[t], 4*H)
			f64.DotRows4(l0.Wh.W, aos, st0.dhNext, st1.dhNext, st2.dhNext, st3.dhNext, 4*H)
			for k := 0; k < n; k++ {
				st := sts[k]
				f64.Mul(st.dcNext, st.dc, st.steps[t].f)
			}
			continue
		}
		// Wx rows: one stream per row across all active lanes. The
		// per-element g == 0 skip lives inside the kernels, per lane.
		for i := 0; i < l0.In; i++ {
			lo, hi := i*4*H, (i+1)*4*H
			m := 0
			for k := 0; k < n; k++ {
				if !act[k] {
					continue
				}
				st := sts[k]
				grads[m] = st.lstm.Wx.Grad[lo:hi]
				gs[m] = st.dPre
				xis[m] = st.steps[t].x[i]
				dsts[m] = &st.dxs[t][i]
				m++
			}
			gradDotN(&grads, l0.Wx.W[lo:hi], &gs, &xis, &dsts, m)
		}
		// Wh rows: dhNext was consumed into dh above, so it can be
		// overwritten in place, exactly as in the scalar referee.
		for i := 0; i < H; i++ {
			lo, hi := i*4*H, (i+1)*4*H
			m := 0
			for k := 0; k < n; k++ {
				if !act[k] {
					continue
				}
				st := sts[k]
				grads[m] = st.lstm.Wh.Grad[lo:hi]
				gs[m] = st.dPre
				xis[m] = st.steps[t].hPrev[i]
				dsts[m] = &st.dhNext[i]
				m++
			}
			gradDotN(&grads, l0.Wh.W[lo:hi], &gs, &xis, &dsts, m)
		}
		for k := 0; k < n; k++ {
			if act[k] {
				st := sts[k]
				f64.Mul(st.dcNext, st.dc, st.steps[t].f)
			}
		}
	}
	if dense && S > 0 {
		// Apply the deferred weight-gradient updates: one pass per Grad
		// matrix replays all S dense timesteps' rank-1 updates element
		// by element, in the same descending-t order the per-timestep
		// calls ran (any t >= minT already went through the gather path
		// above, before these, matching the original sequence).
		for k := 0; k < n; k++ {
			st := sts[k]
			g := lsc.gsave[k*S*4*H : (k+1)*S*4*H]
			f64.GradRowsT(st.lstm.Wx.Grad, g, lsc.xsave[k*S*l0.In:(k+1)*S*l0.In], l0.In, 4*H, S)
			f64.GradRowsT(st.lstm.Wh.Grad, g, lsc.hsave[k*S*H:(k+1)*S*H], H, 4*H, S)
		}
	}
}

// laneScratch holds one lockstep group's per-layer gather buffers so
// stack sweeps allocate nothing in steady state.
type laneScratch struct {
	states [laneWidth]*LSTMState
	cur    [laneWidth][][]float64
	aos    []float64 // lane-interleaved dPre scratch for the dense backward
	gsave  []float64 // deferred-gradient dPre slots (lane-major, then slot)
	xsave  []float64 // deferred-gradient x slots
	hsave  []float64 // deferred-gradient hPrev slots
}

// stackForward advances n lanes through the stack layer by layer; after
// the call lsc.cur[k] holds lane k's top-layer hidden rows.
func (lsc *laneScratch) stackForward(s *Stack, sts []*StackState, xss [][][]float64) {
	n := len(sts)
	copy(lsc.cur[:n], xss)
	for li, l := range s.layers {
		for k := 0; k < n; k++ {
			lsc.states[k] = sts[k].states[li]
		}
		laneLSTMForward(l, lsc.states[:n], lsc.cur[:n])
		for k := 0; k < n; k++ {
			lsc.cur[k] = lsc.states[k].outs[:lsc.states[k].n]
		}
	}
}

// stackBackward propagates n lanes' top-layer hidden gradients down the
// stack; after the call lsc.cur[k] holds lane k's input gradients.
func (lsc *laneScratch) stackBackward(sts []*StackState, dHs [][][]float64) {
	n := len(sts)
	copy(lsc.cur[:n], dHs)
	for li := len(sts[0].states) - 1; li >= 0; li-- {
		for k := 0; k < n; k++ {
			lsc.states[k] = sts[k].states[li]
		}
		laneLSTMBackward(lsc.states[:n], lsc.cur[:n], lsc)
		for k := 0; k < n; k++ {
			lsc.cur[k] = lsc.states[k].dxs[:lsc.states[k].n]
		}
	}
}

// laneTile is one lockstep group of contiguous batch slots [lo, hi).
// Slot b's gradients always land in slot b's shadow buffers no matter
// how tiles are scheduled, so the trainer's fixed slot-order reduction
// is untouched.
type laneTile struct {
	tr      *trainer
	lo, hi  int
	lsc     laneScratch
	sstates [laneWidth]*StackState
	xss     [laneWidth][][]float64
	dss     [laneWidth][][]float64
}

// run computes the gradients of the tile's slots for one optimizer
// step: encoder and decoder sweeps are lane-fused, the small
// output/embedding layers run per lane. Per-slot losses land in
// tr.losses. Steady state allocates nothing.
//
//sdam:noalloc
func (ti *laneTile) run(seqs []Sequence, idx []int, centroids [][]float64, assign []int, lambda float64) {
	tr := ti.tr
	n := ti.hi - ti.lo
	E := tr.master.cfg.EmbDim

	// Input embeddings (per lane), then the lane-fused encoder sweep.
	for k := 0; k < n; k++ {
		b := ti.lo + k
		trainSteps.Add(1)
		obsTrainSteps.Add(1)
		sc := tr.scr[b]
		ti.xss[k] = tr.slots[b].embedInputs(sc, seqs[idx[b]])
		ti.sstates[k] = sc.enc
	}
	ti.lsc.stackForward(tr.master.enc, ti.sstates[:n], ti.xss[:n])

	// The decoder receives each lane's embedding at every step
	// (conditioning by repetition); its Wx product dedups per lane.
	for k := 0; k < n; k++ {
		sc := tr.scr[ti.lo+k]
		outs := ti.lsc.cur[k]
		sc.h = outs[len(outs)-1]
		decIn := sc.decIn[:len(outs)]
		for t := range decIn {
			decIn[t] = sc.h
		}
		ti.xss[k] = decIn
		ti.sstates[k] = sc.dec
	}
	ti.lsc.stackForward(tr.master.dec, ti.sstates[:n], ti.xss[:n])

	// Output layer forward + backward per lane, fused per timestep: the
	// probs for step t are fully computed before their backward runs,
	// and out.Grad still accumulates in ascending-t order, so the bits
	// match the separate forward-then-backward phases.
	for k := 0; k < n; k++ {
		b := ti.lo + k
		s := seqs[idx[b]]
		sc := tr.scr[b]
		slot := tr.slots[b]
		T := len(s.Deltas)
		nBits := float64(T * slot.cfg.DeltaBits)
		sc.probs = sc.probsAll[:T]
		dDecOuts := sc.dDecOuts[:T]
		dLogit := sc.dLogit
		for t, hOut := range ti.lsc.cur[k] {
			logits := sc.logitsAll[t]
			slot.out.ForwardIn(logits, hOut)
			p := sc.probs[t]
			bits := sc.bitVecs[t]
			for j, z := range logits {
				pv := sigmoid(z)
				p[j] = pv
				// d|p-y|/dz = sign(p-y)·p·(1-p).
				sign := 1.0
				if pv < bits[j] {
					sign = -1
				}
				dLogit[j] = sign * pv * (1 - pv) / nBits
			}
			slot.out.BackwardIn(dDecOuts[t], hOut, dLogit)
		}
		ti.dss[k] = dDecOuts
	}

	// Lane-fused decoder backward, then the per-lane embedding-gradient
	// fan-in, loss, and clustering pull.
	ti.lsc.stackBackward(ti.sstates[:n], ti.dss[:n])
	for k := 0; k < n; k++ {
		b := ti.lo + k
		i := idx[b]
		sc := tr.scr[b]
		T := len(seqs[i].Deltas)
		dh := sc.dh
		for j := range dh {
			dh[j] = 0
		}
		for _, d := range ti.lsc.cur[k] {
			f64.Add(dh, d)
		}
		loss := sc.reconLoss()
		if centroids != nil {
			centroid := centroids[assign[i]]
			var cl float64
			for j := range sc.h {
				diff := sc.h[j] - centroid[j]
				dh[j] += lambda * 2 * diff
				cl += diff * diff
			}
			loss += lambda * cl
		}
		tr.losses[b] = loss
		dEncOuts := sc.dEncOuts[:T]
		for t := range dEncOuts {
			dEncOuts[t] = nil
		}
		dEncOuts[T-1] = dh
		ti.dss[k] = dEncOuts
		ti.sstates[k] = sc.enc
	}

	// Lane-fused encoder backward, then the per-lane split of the
	// concatenated embedding gradient.
	ti.lsc.stackBackward(ti.sstates[:n], ti.dss[:n])
	for k := 0; k < n; k++ {
		b := ti.lo + k
		s := seqs[idx[b]]
		sc := tr.scr[b]
		slot := tr.slots[b]
		for t, d := range ti.lsc.cur[k] {
			slot.deltaEmb.BackwardIn(nil, sc.bitVecs[t], d[:E])
			vid := s.VIDs[t] % slot.cfg.NumVIDs
			f64.Add(slot.vidEmb.Grad[vid*E:(vid+1)*E], d[E:])
		}
	}
}

// embedTile is one worker's lockstep scratch for embedding sweeps: up
// to laneWidth sequences advance through the encoder together against
// the master's weights (inference only, no gradients).
type embedTile struct {
	scr     [laneWidth]*stepScratch
	lsc     laneScratch
	sstates [laneWidth]*StackState
	xss     [laneWidth][][]float64
}

func newEmbedTile(m *Autoencoder, maxT int) *embedTile {
	et := &embedTile{}
	for k := range et.scr {
		et.scr[k] = m.newScratch(maxT)
	}
	return et
}

// run embeds sequences [lo, hi) of seqs into their rows of out.
func (et *embedTile) run(m *Autoencoder, seqs []Sequence, lo, hi int, out [][]float64) {
	n := hi - lo
	for k := 0; k < n; k++ {
		sc := et.scr[k]
		et.xss[k] = m.embedInputs(sc, seqs[lo+k])
		et.sstates[k] = sc.enc
	}
	et.lsc.stackForward(m.enc, et.sstates[:n], et.xss[:n])
	for k := 0; k < n; k++ {
		outs := et.lsc.cur[k]
		copy(out[lo+k], outs[len(outs)-1])
	}
}
