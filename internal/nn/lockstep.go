package nn

// Lockstep training (DESIGN.md §14, §25), the package's only LSTM
// forward/backward implementation. A lane tile carries up to laneWidth
// batch slots through the network together. The forward pass runs each
// lane through one f64.AxpyRows call per weight matrix and timestep.
// The backward pass advances the lanes timestep by timestep: every
// Wx/Wh weight row is loaded once per timestep and feeds all four
// lanes' independent dot-product chains (f64.DotRows4), and the
// weight-gradient updates are deferred into one f64.GradRowsT pass per
// Grad matrix. A batch of one is a one-lane tile.
//
// Exactness: lanes only interleave *independent* per-lane operation
// chains. Each lane keeps its own pre-activation, gate, gradient, and
// accumulator buffers, and within a lane every element still receives
// its contributions in exactly the scalar order (ascending i, with the
// load-bearing xi == 0 / g == 0 skips applied per lane). Each output
// element has one serial owner, so every lane is bit-identical to the
// scalar referee in ref_test.go at any lane count, batch size, or -jobs
// setting. Ragged sequence lengths need no second path: a lane past its
// own T reads an all-zero gradient column, like a pad lane of a narrow
// tile.

import (
	"runtime"

	"repro/internal/f64"
	"repro/internal/parallel"
)

// laneWidth is the maximum number of batch lanes fused through one
// weight-row stream — the four lane slots of f64.DotRows4.
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

// laneLSTMForward runs up to laneWidth lanes of one LSTM layer. All
// lanes share the layer's weights (l); each lane's state carries its
// own scratch, so per-lane math is exactly the scalar referee's
// (refLSTMForwardIn in ref_test.go). The lanes' chains are independent,
// so they run one after another.
func laneLSTMForward(l *LSTM, sts []*LSTMState, xss [][][]float64) {
	for k, st := range sts {
		xs := xss[k]
		st.grow(len(xs))
		st.n = len(xs)
		h, c := st.h0, st.c0
		for t, x := range xs {
			s := &st.steps[t]
			s.x, s.hPrev, s.cPrev = x, h, c
			// Pre-activation init, with the xw dedup: an input row that
			// aliases the previous step's row (the decoder's
			// conditioning-by-repetition) replays the snapshotted
			// B + x·Wx. Otherwise one whole-matrix pass applies the Wx
			// rows, keeping the load-bearing xi == 0 row skip.
			if t > 0 && len(x) > 0 && &x[0] == &xs[t-1][0] {
				copy(st.pre, st.xw)
			} else {
				copy(st.pre, l.B.W)
				f64.AxpyRows(l.Wx.W, st.pre, x)
				copy(st.xw, st.pre)
			}
			// The recurrent rows, with the same hi == 0 row skip.
			f64.AxpyRows(l.Wh.W, st.pre, h)
			f64.LSTMGates(s.i, s.f, s.g, s.o, s.c, s.h, s.tc, st.pre, c)
			h, c = s.h, s.c
			st.outs[t] = s.h
		}
	}
}

// laneLSTMBackward runs up to laneWidth lanes of one LSTM layer's BPTT
// in lockstep. Weight rows are shared across lanes (shadow params alias
// the master's W); each lane accumulates into its own Grad buffers, so
// every gradient element keeps one serial owner.
//
// Every timestep is one dense pass: dPre is packed lane-interleaved, the
// lanes' serial dot chains advance together in f64.DotRows4, and the
// weight-gradient updates are deferred into one f64.GradRowsT pass per
// Grad matrix. A lane slot with nothing to do at timestep t — a pad
// slot k >= n of a narrow tile, or a lane past its own length — reads
// the all-zero dPre column (every g == 0 step is skipped, so its chains
// stay +0) and writes its dots to a discard row. DotRows4's (row, lane)
// chains are independent, so the real lanes run exactly the
// instructions of a full four-lane tile.
func laneLSTMBackward(sts []*LSTMState, dHs [][][]float64, lsc *laneScratch) {
	n := len(sts)
	l0 := sts[0].lstm
	H, In := l0.Hidden, l0.In
	S := 0
	for k := 0; k < n; k++ {
		st := sts[k]
		for j := 0; j < H; j++ {
			st.dhNext[j] = 0
			st.dcNext[j] = 0
		}
		S = max(S, st.n)
	}
	if cap(lsc.aos) < laneWidth*4*H {
		lsc.aos = make([]float64, laneWidth*4*H)
		lsc.zero = make([]float64, 4*H)
	}
	if w := max(In, H); cap(lsc.discard) < w {
		lsc.discard = make([]float64, w)
	}
	// Deferred-gradient save areas, S = maxT slots per lane: lane k's
	// slot T_k-1-t holds timestep t, so ascending slots replay the
	// backward pass's descending-t order inside f64.GradRowsT.
	if need := laneWidth * S * 4 * H; cap(lsc.gsave) < need {
		lsc.gsave = make([]float64, need)
	}
	if need := laneWidth * S * In; cap(lsc.xsave) < need {
		lsc.xsave = make([]float64, need)
	}
	if need := laneWidth * S * H; cap(lsc.hsave) < need {
		lsc.hsave = make([]float64, need)
	}
	aos := lsc.aos[:cap(lsc.aos)]
	for t := S - 1; t >= 0; t-- {
		// Interleave4 and DotRows4 take their lengths from the first
		// lane, which may be a finished one, so the shared zero column
		// and discard row are cut to this layer's widths.
		var dPre, dx, dh [laneWidth][]float64
		for k := range dPre {
			dPre[k], dx[k], dh[k] = lsc.zero[:4*H], lsc.discard[:In], lsc.discard[:H]
		}
		for k := 0; k < n; k++ {
			st := sts[k]
			if t >= st.n {
				continue
			}
			s := &st.steps[t]
			copy(st.dh, st.dhNext)
			if t < len(dHs[k]) && dHs[k][t] != nil {
				f64.Add(st.dh, dHs[k][t])
			}
			f64.LSTMGateBackward(st.dPre, st.dc, st.dh, st.dcNext, s.i, s.f, s.g, s.o, s.tc, s.cPrev)
			f64.AddSkip(st.lstm.B.Grad, st.dPre)
			dPre[k], dx[k], dh[k] = st.dPre, st.dxs[t], st.dhNext
			// The gradient updates and the dot products touch disjoint
			// arrays (Grad vs W), so deferring the updates leaves every
			// element's contribution order unchanged: stash this
			// timestep's dPre and inputs for GradRowsT after the loop.
			slot := k*S + st.n - 1 - t
			copy(lsc.gsave[slot*4*H:(slot+1)*4*H], st.dPre)
			copy(lsc.xsave[slot*In:(slot+1)*In], s.x)
			copy(lsc.hsave[slot*H:(slot+1)*H], s.hPrev)
		}
		f64.Interleave4(aos, dPre[0], dPre[1], dPre[2], dPre[3])
		// dhNext was consumed into dh above, so it can be overwritten in
		// place, exactly as in the scalar referee.
		f64.DotRows4(l0.Wx.W, aos, dx[0], dx[1], dx[2], dx[3], 4*H)
		f64.DotRows4(l0.Wh.W, aos, dh[0], dh[1], dh[2], dh[3], 4*H)
		for k := 0; k < n; k++ {
			if st := sts[k]; t < st.n {
				f64.Mul(st.dcNext, st.dc, st.steps[t].f)
			}
		}
	}
	// Apply the deferred weight-gradient updates: one pass per Grad
	// matrix replays lane k's T_k rank-1 updates element by element, in
	// the descending-t order the per-timestep updates would have run.
	for k := 0; k < n; k++ {
		st := sts[k]
		lo, T := k*S, st.n
		g := lsc.gsave[lo*4*H : (lo+T)*4*H]
		f64.GradRowsT(st.lstm.Wx.Grad, g, lsc.xsave[lo*In:(lo+T)*In], In, 4*H, T)
		f64.GradRowsT(st.lstm.Wh.Grad, g, lsc.hsave[lo*H:(lo+T)*H], H, 4*H, T)
	}
}

// laneScratch holds one lockstep group's per-layer backward buffers so
// stack sweeps allocate nothing in steady state.
type laneScratch struct {
	states  [laneWidth]*LSTMState
	cur     [laneWidth][][]float64
	aos     []float64 // lane-interleaved dPre scratch
	zero    []float64 // all-zero dPre column for pad lanes and finished lanes
	discard []float64 // sink for those lanes' DotRows4 outputs
	gsave   []float64 // deferred-gradient dPre slots (lane-major, then slot)
	xsave   []float64 // deferred-gradient x slots
	hsave   []float64 // deferred-gradient hPrev slots
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
// step: encoder and decoder sweeps run in lockstep, the small
// output/embedding layers run per lane. Per-slot losses land in
// tr.losses. Steady state allocates nothing.
//
//sdam:noalloc
func (ti *laneTile) run(seqs []Sequence, idx []int, centroids [][]float64, assign []int, lambda float64) {
	tr := ti.tr
	n := ti.hi - ti.lo
	E := tr.master.cfg.EmbDim

	// Input embeddings (per lane), then the lockstep encoder sweep.
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

	// Lockstep decoder backward, then the per-lane embedding-gradient
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

	// Lockstep encoder backward, then the per-lane split of the
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
