package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad computes dL/dw by central differences for one weight.
func numericGrad(w *float64, loss func() float64) float64 {
	const eps = 1e-5
	old := *w
	*w = old + eps
	lp := loss()
	*w = old - eps
	lm := loss()
	*w = old
	return (lp - lm) / (2 * eps)
}

func TestLinearGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	l := NewLinear("t", 3, 2, r)
	x := []float64{0.5, -1.2, 0.3}
	// L = 0.5·Σ y_j².
	y := make([]float64, 2)
	loss := func() float64 {
		l.ForwardIn(y, x)
		var s float64
		for _, v := range y {
			s += v * v
		}
		return 0.5 * s
	}
	l.ForwardIn(y, x)
	dx := make([]float64, len(x))
	l.BackwardIn(dx, x, y) // dL/dy = y

	for _, p := range l.Params() {
		for i := range p.W {
			want := numericGrad(&p.W[i], loss)
			if math.Abs(p.Grad[i]-want) > 1e-6 {
				t.Fatalf("%s[%d]: analytic %.8f numeric %.8f", p.Name, i, p.Grad[i], want)
			}
		}
	}
	// Check dX too.
	for i := range x {
		want := numericGrad(&x[i], loss)
		if math.Abs(dx[i]-want) > 1e-6 {
			t.Fatalf("dx[%d]: analytic %.8f numeric %.8f", i, dx[i], want)
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	l := NewLSTM("t", 2, 3, r)
	xs := [][]float64{{0.3, -0.7}, {1.1, 0.2}, {-0.5, 0.9}}
	// L = 0.5·Σ_t Σ_j h_t[j]².
	loss := func() float64 {
		_, outs := laneForward(l, xs)
		var s float64
		for _, h := range outs {
			for _, v := range h {
				s += v * v
			}
		}
		return 0.5 * s
	}
	st, outs := laneForward(l, xs)
	dH := make([][]float64, len(outs))
	for t2, h := range outs {
		dH[t2] = append([]float64(nil), h...)
	}
	dxs := laneBackward(st, dH)

	for _, p := range l.Params() {
		for i := range p.W {
			want := numericGrad(&p.W[i], loss)
			if math.Abs(p.Grad[i]-want) > 1e-5 {
				t.Fatalf("%s[%d]: analytic %.8f numeric %.8f", p.Name, i, p.Grad[i], want)
			}
		}
	}
	for t2 := range xs {
		for i := range xs[t2] {
			want := numericGrad(&xs[t2][i], loss)
			if math.Abs(dxs[t2][i]-want) > 1e-5 {
				t.Fatalf("dx[%d][%d]: analytic %.8f numeric %.8f", t2, i, dxs[t2][i], want)
			}
		}
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := NewParam("q", 1, 4, r)
	opt := NewAdam([]*Param{p}, 0.05)
	loss := func() float64 {
		var s float64
		for _, w := range p.W {
			s += (w - 2) * (w - 2)
		}
		return s
	}
	start := loss()
	for i := 0; i < 500; i++ {
		for j, w := range p.W {
			p.Grad[j] = 2 * (w - 2)
		}
		opt.Step()
	}
	if end := loss(); end > start/100 {
		t.Fatalf("Adam failed to optimize: %v -> %v", start, end)
	}
}

func TestCheckFinite(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := NewParam("p", 1, 2, r)
	if err := CheckFinite([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	p.W[0] = math.NaN()
	if err := CheckFinite([]*Param{p}); err == nil {
		t.Fatal("NaN parameter passed CheckFinite")
	}
}

func TestGradientClipping(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := NewParam("p", 1, 2, r)
	opt := NewAdam([]*Param{p}, 0.001)
	p.Grad[0] = 1e6
	p.Grad[1] = 1e6
	before := append([]float64(nil), p.W...)
	opt.Step()
	for i := range p.W {
		if math.Abs(p.W[i]-before[i]) > 0.01 {
			t.Fatalf("clipped step moved weight by %v", p.W[i]-before[i])
		}
	}
}
