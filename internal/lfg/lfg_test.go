package lfg

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// bounds are the Intn/Int31n/Int63n arguments the fuzz target draws
// with: powers of two (one masked draw), other values, 1, bounds just
// above a power of two, where about half of all draws are rejected and
// redrawn, and the bounds either side of Intn's hand-off to Int63n.
var bounds = []int64{1, 2, 3, 7, 16, 100, 1000, 1 << 20, 1<<20 + 1, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1 << 33, 1<<33 + 1, 1<<62 + 1, 1<<63 - 1}

// call is one method of the generator and of *rand.Rand, applied with a
// bound and reduced to a comparable value.
type call struct {
	name string
	do   func(g *Source, gr, r *rand.Rand, n int64) (got, want uint64, ok bool)
}

var calls = []call{
	{"Uint64", func(g *Source, _, r *rand.Rand, _ int64) (uint64, uint64, bool) { return g.Uint64(), r.Uint64(), true }},
	{"Int63", func(g *Source, _, r *rand.Rand, _ int64) (uint64, uint64, bool) {
		return uint64(g.Int63()), uint64(r.Int63()), true
	}},
	{"Int31", func(g *Source, _, r *rand.Rand, _ int64) (uint64, uint64, bool) {
		return uint64(g.Int31()), uint64(r.Int31()), true
	}},
	{"Uint32", func(_ *Source, gr, r *rand.Rand, _ int64) (uint64, uint64, bool) {
		return uint64(gr.Uint32()), uint64(r.Uint32()), true
	}},
	{"Float64", func(_ *Source, gr, r *rand.Rand, _ int64) (uint64, uint64, bool) {
		return math.Float64bits(gr.Float64()), math.Float64bits(r.Float64()), true
	}},
	{"NormFloat64", func(_ *Source, gr, r *rand.Rand, _ int64) (uint64, uint64, bool) {
		return math.Float64bits(gr.NormFloat64()), math.Float64bits(r.NormFloat64()), true
	}},
	{"Int63n", func(g *Source, _, r *rand.Rand, n int64) (uint64, uint64, bool) {
		return uint64(g.Int63n(n)), uint64(r.Int63n(n)), true
	}},
	{"Int31n", func(g *Source, _, r *rand.Rand, n int64) (uint64, uint64, bool) {
		if n > math.MaxInt32 {
			return 0, 0, false
		}
		return uint64(g.Int31n(int32(n))), uint64(r.Int31n(int32(n))), true
	}},
	{"Intn", func(g *Source, _, r *rand.Rand, n int64) (uint64, uint64, bool) {
		if strconv.IntSize == 32 && n > math.MaxInt32 {
			return 0, 0, false
		}
		return uint64(g.Intn(int(n))), uint64(r.Intn(int(n))), true
	}},
}

// FuzzGeneratorMatchesMathRand drives a Source and
// rand.New(rand.NewSource(seed)) through one mixed sequence of calls,
// picked by mix, and checks every value. The sequence runs past the
// shared seeded block and across several refills, with the float
// methods drawing through rand.New(g) on the same stream. A second pass
// over the same seed must give the same values, which proves the first
// pass never wrote the shared block.
func FuzzGeneratorMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 42, 0x9e3779b9, -0x9e3779b9, 1<<31 - 1, -(1 << 31), 1 << 40, -1 << 63, 1<<63 - 1} {
		f.Add(seed, uint64(0))
		f.Add(seed, uint64(0x9e3779b97f4a7c15))
	}
	f.Fuzz(func(t *testing.T, seed int64, mix uint64) {
		const steps = 5 * Len
		for pass := 0; pass < 2; pass++ {
			g := New(seed)
			gr := rand.New(g)
			r := rand.New(rand.NewSource(seed))
			x := mix | 1
			for i := 0; i < steps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				c := calls[x%uint64(len(calls))]
				n := bounds[(x>>8)%uint64(len(bounds))]
				got, want, ok := c.do(g, gr, r, n)
				if ok && got != want {
					t.Fatalf("seed %d, mix %#x, pass %d, step %d: %s(%d) = %#x, want %#x", seed, mix, pass, i, c.name, n, got, want)
				}
			}
		}
	})
}

// TestSeedRestarts checks Seed restarts the stream at the new seed's
// first draw, including after a refill.
func TestSeedRestarts(t *testing.T) {
	g := New(3)
	for i := 0; i < 2*Len; i++ {
		g.Uint64()
	}
	g.Seed(5)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2*Len; i++ {
		if got, want := g.Uint64(), r.Uint64(); got != want {
			t.Fatalf("after Seed(5), draw %d = %#x, want %#x", i, got, want)
		}
	}
}
