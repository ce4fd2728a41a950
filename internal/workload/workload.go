// Package workload defines the benchmark programs that drive the
// evaluation: the synthetic strided data copy (§7.2's synthetic
// benchmark and Figs 3/4/11), and the 19 SPEC2006/PARSEC proxy
// applications whose variable-level structure is parameterized by the
// paper's published Table 1 statistics.
//
// A Workload allocates its variables through the SDAM-aware allocator —
// asking the environment's policy which mapping ID each variable gets —
// and then produces per-thread virtual-address reference streams that
// the cpu.Engine executes. Because allocation and access go through the
// same machinery a real program would (malloc → mmap → page fault →
// chunk group), the full SDAM stack is exercised end to end.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/memo"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Env is everything a workload needs to set itself up.
type Env struct {
	AS   *vm.AddressSpace
	Heap *heap.Allocator
	// MapIDFor is the mapping policy: given a variable's allocation
	// site, return the mapping ID to malloc with. The baseline systems
	// return 0 everywhere; the SDAM configurations consult a Selection.
	MapIDFor func(site string) int
	// Collector, when non-nil, is told about allocations so accesses can
	// be attributed to variables.
	Collector *trace.Collector
	// OnAlloc, when non-nil, observes every allocation in program order —
	// the hook the reference-tape layer uses to capture a run's VM layout
	// (allocation site, base address, and size) so recorded reference
	// streams can be rebased onto another run's layout.
	OnAlloc func(site string, va vm.VA, bytes uint64)
}

// mapIDFor applies the policy with a nil-safe default.
func (e *Env) mapIDFor(site string) int {
	if e.MapIDFor == nil {
		return 0
	}
	return e.MapIDFor(site)
}

// Alloc allocates one variable through the policy and registers it with
// the collector.
func (e *Env) Alloc(site string, bytes uint64) (vm.VA, error) {
	va, err := e.Heap.Malloc(bytes, e.mapIDFor(site), site)
	if err != nil {
		return 0, fmt.Errorf("workload: allocating %q: %w", site, err)
	}
	if e.Collector != nil {
		e.Collector.NoteAlloc(site, va, bytes)
	}
	if e.OnAlloc != nil {
		e.OnAlloc(site, va, bytes)
	}
	return va, nil
}

// Workload is one benchmark program. The set of programs is closed
// (Env is internal, so nothing outside this module can implement it),
// and every one can clone itself and name its stream content, so both
// are part of the contract.
type Workload interface {
	// Name identifies the benchmark (Table 1 / Fig 12 row name).
	Name() string
	// Setup allocates the benchmark's variables under env's policy.
	Setup(env *Env) error
	// Streams returns the per-thread reference streams for one run.
	// Different seeds model different program inputs (the paper's
	// train-vs-test cross-validation, §7.3).
	Streams(seed int64) []cpu.Stream
	// Clone returns a fresh, independent instance with the same
	// parameters. Setup mutates a workload (it records the run's
	// allocations), so concurrent runs of the same benchmark — the
	// parallel sweep cells of system.Compare and the experiment
	// harness — each use their own clone.
	Clone() Workload
	// TapeKey returns a string that changes whenever the parameters
	// the streams depend on change: two workloads with equal keys and
	// equal seeds emit identical streams modulo allocation base
	// addresses, which is exactly the invariant the reference-tape
	// cache (internal/tape) and the profiling-pass cache need to share
	// one recording across sweep cells. Streams that depend on
	// anything else (e.g. external file contents) fold it into the
	// key — a replayed trace file keys on a hash of its contents.
	TapeKey() string
}

// Pattern generates a variable's access-offset sequence.
type Pattern interface {
	// NewState creates a stateful offset generator over a variable of
	// the given size. The seed varies with program input.
	NewState(bytes uint64, seed int64) PatternState
	// String names the pattern for reports.
	String() string
}

// PatternState produces successive byte offsets within a variable.
type PatternState interface {
	Next() uint64
}

// Stride accesses the variable at a fixed cache-line stride, wrapping at
// the end — the dominant pattern class in array codes.
type Stride struct {
	Lines int // stride in cache lines
}

// NewState implements Pattern.
func (s Stride) NewState(bytes uint64, seed int64) PatternState {
	lines := bytes / geom.LineBytes
	if lines == 0 {
		lines = 1
	}
	stride := uint64(s.Lines)
	if stride == 0 {
		stride = 1
	}
	// The input seed varies where in the array the sweep begins, but a
	// strided loop always stays on the stride lattice (element 0, s,
	// 2s, …), so the start is aligned down to a stride multiple.
	start := uint64(0)
	if seed != 0 && lines > stride {
		start = uint64(seed*2654435761) % (lines / stride) * stride
	}
	return &strideState{lines: lines, stride: stride, pos: start}
}

// String implements Pattern.
func (s Stride) String() string { return fmt.Sprintf("stride%d", s.Lines) }

type strideState struct {
	lines, stride, pos uint64
}

func (s *strideState) Next() uint64 {
	off := s.pos * geom.LineBytes
	s.pos += s.stride
	if s.pos >= s.lines {
		// Pure modulo wrap: a stride-s sweep revisits exactly the lines
		// ≡ start (mod s), the pattern that collapses channel
		// interleaving in the paper's motivating experiment (Fig 3).
		s.pos %= s.lines
	}
	return off
}

// Random accesses uniformly distributed cache lines — hash tables,
// pointer-heavy structures. Its n-th draw is the n-th Uint64 of
// rand.New(rand.NewSource(seed ^ 0x9e3779b9)).
type Random struct{}

// NewState implements Pattern.
func (Random) NewState(bytes uint64, seed int64) PatternState {
	lines := bytes / geom.LineBytes
	if lines == 0 {
		lines = 1
	}
	return &randomState{lines: lines, block: seededBlock(seed ^ 0x9e3779b9)}
}

// String implements Pattern.
func (Random) String() string { return "random" }

// math/rand's source is an additive lagged-Fibonacci generator: its
// n-th Uint64 is y[n] = y[n-lfgLen] + y[n-lfgTap] (mod 2^64), where the
// y[n] with n < 0 are the state seeding writes. Seeding costs
// microseconds, a proxy variable draws only a handful of values, and a
// sweep seeds the same few hundred seeds tens of thousands of times. So
// each seed's first lfgLen draws are computed once per process and
// shared read-only; a state that draws past them continues the
// recurrence, which needs exactly the last lfgLen draws, in a private
// copy. Go 1 promises rand.NewSource's seeded sequence never changes.
const (
	lfgLen = 607
	lfgTap = 273
)

// lfgBlock is one seed's first lfgLen draws.
type lfgBlock [lfgLen]uint64

// seededBlocks holds up to 8 MiB of blocks (about 1700 seeds).
var seededBlocks = memo.New[int64, *lfgBlock](memo.Config[*lfgBlock]{
	Name:   "random-block",
	Budget: 8 << 20,
	Size:   func(*lfgBlock) int64 { return lfgLen * 8 },
})

// seededBlock returns seed's block from the memo, computing it uncached
// once the memo's budget is spent. The result is shared and must not be
// modified.
func seededBlock(seed int64) *lfgBlock {
	gen := func() (*lfgBlock, error) {
		r := rand.New(rand.NewSource(seed))
		b := new(lfgBlock)
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

type randomState struct {
	lines uint64
	block *lfgBlock // shared: draws 0 … lfgLen-1
	ring  *lfgBlock // private, once past block: draw k at k mod lfgLen
	n     int       // draws made
}

func (s *randomState) Next() uint64 {
	return (s.draw() % s.lines) * geom.LineBytes
}

// draw returns the next value of the seeded sequence.
func (s *randomState) draw() uint64 {
	n := s.n
	s.n++
	if n < lfgLen {
		return s.block[n]
	}
	if s.ring == nil {
		ring := *s.block
		s.ring = &ring
	}
	// ring[n mod lfgLen] still holds y[n-lfgLen].
	i := n % lfgLen
	s.ring[i] += s.ring[(n-lfgTap)%lfgLen]
	return s.ring[i]
}

// Chase models pointer chasing: a pseudo-random permutation walk whose
// next address depends on the current one, giving serial random misses.
type Chase struct{}

// NewState implements Pattern.
func (Chase) NewState(bytes uint64, seed int64) PatternState {
	lines := bytes / geom.LineBytes
	if lines == 0 {
		lines = 1
	}
	return &chaseState{lines: lines, cur: uint64(seed) % lines}
}

// String implements Pattern.
func (Chase) String() string { return "chase" }

type chaseState struct {
	lines, cur uint64
}

func (s *chaseState) Next() uint64 {
	off := s.cur * geom.LineBytes
	// Weyl-style walk: full-period for odd increments; the multiplier
	// scrambles locality like a linked structure does.
	s.cur = (s.cur*2862933555777941757 + 3037000493) % s.lines
	return off
}

// varRef is one allocated variable ready to generate references.
type varRef struct {
	site    string
	base    vm.VA
	bytes   uint64
	pattern Pattern
	weight  float64 // share of references
	pc      uint64
}

// mixStream interleaves several variables' reference generators
// according to a deterministic weighted schedule. It generates
// references incrementally, a batch at a time, so a multi-million-entry
// stream is never materialized, and it can Reset for replay because the
// whole emission is a function of the stored seed.
type mixStream struct {
	vars      []varRef
	states    []PatternState
	schedule  []int
	pos       int
	remaining int
	n         int   // total references, for Reset
	seed      int64 // pattern-state seed, for Reset
}

// newMixStream builds a stream of n references over the variables,
// scheduled by weight.
func newMixStream(vars []varRef, n int, seed int64) *mixStream {
	ms := &mixStream{vars: vars, remaining: n, n: n, seed: seed}
	ms.states = make([]PatternState, len(vars))
	for i, v := range vars {
		ms.states[i] = v.pattern.NewState(v.bytes, seed+int64(i))
	}
	// Build a schedule with slot counts exactly proportional to weights
	// (largest-remainder apportionment — lightly-weighted variables may
	// get zero slots, as rarely-touched variables should), then shuffle
	// deterministically so patterns interleave.
	const slots = 4096
	var total float64
	for _, v := range vars {
		total += v.weight
	}
	type share struct {
		idx  int
		k    int
		frac float64
	}
	shares := make([]share, len(vars))
	assigned := 0
	for i, v := range vars {
		exact := v.weight / total * slots
		shares[i] = share{idx: i, k: int(exact), frac: exact - float64(int(exact))}
		assigned += shares[i].k
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].frac > shares[b].frac })
	for i := 0; assigned < slots; i, assigned = (i+1)%len(shares), assigned+1 {
		shares[i].k++
	}
	for _, sh := range shares {
		for j := 0; j < sh.k; j++ {
			ms.schedule = append(ms.schedule, sh.idx)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5bf03635))
	r.Shuffle(len(ms.schedule), func(i, j int) {
		ms.schedule[i], ms.schedule[j] = ms.schedule[j], ms.schedule[i]
	})
	return ms
}

// Next implements cpu.Stream.
func (ms *mixStream) Next() (cpu.Ref, bool) { return cpu.NextOf(ms) }

// NextBatch implements cpu.Stream, with the schedule wrap hoisted out
// of the per-reference work.
//
//sdam:noalloc
func (ms *mixStream) NextBatch(buf []cpu.Ref) int {
	n := len(buf)
	if n > ms.remaining {
		n = ms.remaining
	}
	if n <= 0 || len(ms.schedule) == 0 {
		return 0
	}
	pos := ms.pos % len(ms.schedule)
	for k := 0; k < n; k++ {
		i := ms.schedule[pos]
		pos++
		if pos == len(ms.schedule) {
			pos = 0
		}
		v := &ms.vars[i]
		off := ms.states[i].Next()
		if off >= v.bytes {
			off = 0
		}
		buf[k] = cpu.Ref{VA: v.base + vm.VA(off), PC: v.pc}
	}
	ms.pos += n
	ms.remaining -= n
	return n
}

// Remaining implements cpu.Stream.
func (ms *mixStream) Remaining() int {
	if len(ms.schedule) == 0 {
		return 0
	}
	return ms.remaining
}

// Reset rewinds the stream to its initial state: the schedule is
// already a pure function of the construction seed, and the pattern
// states are rebuilt from it.
func (ms *mixStream) Reset() {
	ms.pos = 0
	ms.remaining = ms.n
	for i, v := range ms.vars {
		ms.states[i] = v.pattern.NewState(v.bytes, ms.seed+int64(i))
	}
}
