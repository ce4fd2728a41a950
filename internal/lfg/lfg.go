// Package lfg is math/rand's additive lagged-Fibonacci source as a
// concrete type. Source's n-th Uint64 is the n-th Uint64 of
// rand.New(rand.NewSource(seed)), and its Int63, Int31, Int31n, Int63n
// and Intn reproduce the *rand.Rand methods of the same names draw for
// draw, without the interface call each draw costs through *rand.Rand.
// Source also implements rand.Source64, so rand.New(src) draws
// math/rand's own floats and normals from the same stream.
//
// The source keeps the last Len draws: draw n is
// y[n] = y[n-Len] + y[n-tap] (mod 2^64), where the y[n] with n < 0 are
// the state seeding writes (DESIGN.md §18 item 3, §27). Seeding costs
// microseconds, while the simulator seeds the same few hundred seeds
// tens of thousands of times and often draws only a handful of values.
// So each seed's first Len draws are computed once per process and
// shared read-only; a source that draws past them copies the block
// once and continues the recurrence in place, Len draws at a time.
// Go 1 promises rand.NewSource's seeded sequence never changes.
package lfg

import (
	"math/rand"

	"repro/internal/memo"
)

// Len and tap are the recurrence's lags.
const (
	Len = 607
	tap = 273
)

// block is Len consecutive draws.
type block [Len]uint64

// seededBlocks holds up to 8 MiB of first blocks (about 1700 seeds).
var seededBlocks = memo.New[int64, *block](memo.Config[*block]{
	Name:   "random-block",
	Budget: 8 << 20,
	Size:   func(*block) int64 { return Len * 8 },
})

// seededBlock returns seed's first Len draws from the memo, computing
// them uncached once the memo's budget is spent. The result is shared
// and must not be modified.
func seededBlock(seed int64) *block {
	gen := func() (*block, error) {
		r := rand.New(rand.NewSource(seed))
		b := new(block)
		for i := range b {
			b[i] = r.Uint64()
		}
		return b, nil
	}
	b, err := seededBlocks.Do(seed, gen)
	if err != nil {
		b, _ = gen()
	}
	return b
}

// Source is one seeded stream. It is not safe for concurrent use, and
// the zero Source has no stream: start one with New or Seed.
type Source struct {
	vec *block // the current Len draws: the shared seeded block until the first refill
	pos int    // index in vec of the next draw
	own bool   // vec is this source's private copy
}

// New returns a source positioned at the first draw of
// rand.NewSource(seed).
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: it restarts the stream at seed's first
// draw.
func (s *Source) Seed(seed int64) {
	*s = Source{vec: seededBlock(seed)}
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.pos == Len {
		s.refill()
	}
	v := s.vec[s.pos]
	s.pos++
	return v
}

// refill replaces the Len draws in vec by the next Len. Slot k holds
// y[N-Len+k] and becomes y[N+k] = y[N-Len+k] + y[N+k-tap]: for k < tap
// the second term is the old slot k+Len-tap, which the ascending loop
// has not yet overwritten; for k >= tap it is the new slot k-tap.
// Kept out of line so Uint64 stays small enough to inline.
//
//go:noinline
func (s *Source) refill() {
	if !s.own {
		v := *s.vec
		s.vec, s.own = &v, true
	}
	v := s.vec
	for k := 0; k < tap; k++ {
		v[k] += v[k+Len-tap]
	}
	for k := tap; k < Len; k++ {
		v[k] += v[k-tap]
	}
	s.pos = 0
}

// Int63 implements rand.Source: a non-negative 63-bit draw.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Int31 is (*rand.Rand).Int31.
func (s *Source) Int31() int32 { return int32(s.Int63() >> 32) }

// Int63n is (*rand.Rand).Int63n: a draw in [0, n), masked when n is a
// power of two and otherwise redrawn until it falls below the largest
// multiple of n.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// Int31n is (*rand.Rand).Int31n, Int63n on 31-bit draws.
func (s *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return s.Int31() & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.Int31()
	for v > limit {
		v = s.Int31()
	}
	return v % n
}

// Intn is (*rand.Rand).Intn: Int31n for bounds that fit 31 bits,
// Int63n above.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.Int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}
