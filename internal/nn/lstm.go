package nn

import (
	"fmt"
	"math/rand"
)

// LSTM is a single-layer LSTM processing sequences step by step with
// full backpropagation through time. Gate layout follows the usual
// [input, forget, cell, output] convention.
type LSTM struct {
	In, Hidden int
	Wx         *Param // In×4H
	Wh         *Param // H×4H
	B          *Param // 1×4H
}

// NewLSTM creates an LSTM with forget-gate bias initialized to 1, the
// standard trick for gradient flow on short training budgets.
func NewLSTM(name string, in, hidden int, r *rand.Rand) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: NewParam(name+".Wx", in, 4*hidden, r),
		Wh: NewParam(name+".Wh", hidden, 4*hidden, r),
		B:  NewParam(name+".b", 1, 4*hidden, r),
	}
	for j := hidden; j < 2*hidden; j++ { // forget gate slice
		l.B.W[j] = 1
	}
	return l
}

// Params returns the learnable tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// shadow returns an LSTM sharing l's weights but accumulating gradients
// into private buffers — the per-slot view batched training reduces from.
func (l *LSTM) shadow() *LSTM {
	return &LSTM{In: l.In, Hidden: l.Hidden,
		Wx: shadowParam(l.Wx), Wh: shadowParam(l.Wh), B: shadowParam(l.B)}
}

// lstmStep caches one timestep's activations for BPTT.
type lstmStep struct {
	x          []float64
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64 // post-nonlinearity gate values
	c, h       []float64
	tc         []float64 // tanh(c), cached so backward reuses the forward's bits
}

// Stack chains several LSTM layers (the "×2" in Table 2's network
// size): layer k's per-step hidden states feed layer k+1's inputs.
type Stack struct {
	layers []*LSTM
}

// NewStack creates n stacked LSTM layers; the first maps in→hidden, the
// rest hidden→hidden.
func NewStack(name string, in, hidden, n int, r *rand.Rand) *Stack {
	if n < 1 {
		n = 1
	}
	s := &Stack{}
	for k := 0; k < n; k++ {
		layerIn := hidden
		if k == 0 {
			layerIn = in
		}
		s.layers = append(s.layers, NewLSTM(fmt.Sprintf("%s.l%d", name, k), layerIn, hidden, r))
	}
	return s
}

// Params returns every layer's learnable tensors.
func (s *Stack) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// shadow returns a Stack sharing weights with private gradients.
func (s *Stack) shadow() *Stack {
	sh := &Stack{}
	for _, l := range s.layers {
		sh.layers = append(sh.layers, l.shadow())
	}
	return sh
}

// StackState caches one forward pass through all layers. A state is
// reusable scratch: allocate once with NewState, then run any number of
// lockstep forward/backward cycles (lockstep.go) through it without
// further allocation.
type StackState struct {
	states []*LSTMState
}

// NewState allocates reusable forward/backward scratch for sequences up
// to maxT steps (longer sequences grow the state transparently).
func (s *Stack) NewState(maxT int) *StackState {
	st := &StackState{}
	for _, l := range s.layers {
		st.states = append(st.states, l.NewState(maxT))
	}
	return st
}

// LSTMState is the cached forward pass over one sequence plus the
// backward pass's scratch. States are reusable: one allocation serves
// any number of forward/backward cycles (the training loop's per-worker
// scratch), growing only if a longer sequence arrives.
type LSTMState struct {
	lstm  *LSTM
	n     int // timesteps of the last forward pass
	steps []lstmStep
	outs  [][]float64
	h0    []float64 // initial (zero) state; never written after creation
	c0    []float64
	pre   []float64 // forward scratch, fully rewritten each step
	xw    []float64 // B + x·Wx of the last distinct input row

	// Backward scratch, fully rewritten per call.
	dxs            [][]float64
	dh, dPre, dc   []float64
	dhNext, dcNext []float64
	gateBuf, dxBuf []float64 // backing arrays for steps[i]/dxs
}

// NewState allocates reusable scratch for sequences up to maxT steps.
func (l *LSTM) NewState(maxT int) *LSTMState {
	st := &LSTMState{
		lstm:   l,
		h0:     make([]float64, l.Hidden),
		c0:     make([]float64, l.Hidden),
		pre:    make([]float64, 4*l.Hidden),
		xw:     make([]float64, 4*l.Hidden),
		dh:     make([]float64, l.Hidden),
		dPre:   make([]float64, 4*l.Hidden),
		dc:     make([]float64, l.Hidden),
		dhNext: make([]float64, l.Hidden),
		dcNext: make([]float64, l.Hidden),
	}
	st.grow(maxT)
	return st
}

// grow extends the per-timestep buffers to hold at least maxT steps.
func (st *LSTMState) grow(maxT int) {
	if maxT <= len(st.steps) {
		return
	}
	H := st.lstm.Hidden
	in := st.lstm.In
	st.steps = make([]lstmStep, maxT)
	st.outs = make([][]float64, maxT)
	st.dxs = make([][]float64, maxT)
	st.gateBuf = make([]float64, maxT*7*H)
	st.dxBuf = make([]float64, maxT*in)
	for t := 0; t < maxT; t++ {
		buf := st.gateBuf[t*7*H : (t+1)*7*H]
		s := &st.steps[t]
		s.i = buf[0*H : 1*H]
		s.f = buf[1*H : 2*H]
		s.g = buf[2*H : 3*H]
		s.o = buf[3*H : 4*H]
		s.c = buf[4*H : 5*H]
		s.h = buf[5*H : 6*H]
		s.tc = buf[6*H : 7*H]
		st.dxs[t] = st.dxBuf[t*in : (t+1)*in]
	}
}
