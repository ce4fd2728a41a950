// Package apps implements the paper's eight data-intensive benchmarks
// (§7.2) as real algorithm kernels over the simulated memory system:
// graph processing (BFS, PageRank, SSSP), in-memory analytics (hash
// join, merge-sort join), and machine learning / information retrieval
// (K-Means, HNSW, IVFPQ).
//
// Each kernel allocates its data structures through the SDAM-aware
// allocator (so every array is a profiled variable) and then runs its
// algorithm on synthetic data, recording the memory reference each step
// would issue. What runs is exactly the control flow that decides
// addresses: every branch, loop bound and index a reference depends on
// is computed from real data (the graph BFS expands, the bucket chains
// a hash join probes, the keys a merge compares, the distances an HNSW
// walk follows), while values no address reads — PageRank's ranks,
// K-Means' coordinates and centroids, a hash join's match count — are
// never computed. The reference streams therefore carry the genuine
// access-pattern structure (streaming edge scans, random vertex
// gathers, hash-bucket probes, pointer-chasing graph walks) that SDAM's
// per-variable mappings exploit.
package apps

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Options bounds a kernel run.
type Options struct {
	Threads int // default 4
	MaxRefs int // per-run reference cap; default 200k
	Scale   int // problem-size scale knob; default 1
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.MaxRefs <= 0 {
		o.MaxRefs = 200_000
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

// array is one allocated variable with element-granularity addressing.
type array struct {
	site string
	base vm.VA
	elem uint64
	n    uint64
	pc   uint64
}

// va returns the address of element i (clamped, so synthetic index
// streams can never escape the allocation).
func (a *array) va(i uint64) vm.VA {
	if a.n == 0 {
		return a.base
	}
	return a.base + vm.VA((i%a.n)*a.elem)
}

// recorder accumulates per-thread reference streams with a global cap.
type recorder struct {
	refs  [][]cpu.Ref
	cap   int
	total int
}

// newRecorder gives each thread its even share of the cap up front, so
// a kernel that spreads its references evenly never regrows a stream.
func newRecorder(threads, cap int) *recorder {
	r := &recorder{refs: make([][]cpu.Ref, threads), cap: cap}
	share := (cap + threads - 1) / threads
	for t := range r.refs {
		r.refs[t] = make([]cpu.Ref, 0, share)
	}
	return r
}

// full reports whether the reference budget is exhausted.
func (r *recorder) full() bool { return r.total >= r.cap }

// touch records one load by thread t to element i of a.
func (r *recorder) touch(t int, a *array, i uint64) {
	if r.full() {
		return
	}
	r.refs[t%len(r.refs)] = append(r.refs[t%len(r.refs)], cpu.Ref{VA: a.va(i), PC: a.pc})
	r.total++
}

// write records one store; the engine posts stores through the write
// buffer, so they cost bandwidth but never stall the core.
func (r *recorder) write(t int, a *array, i uint64) {
	if r.full() {
		return
	}
	r.refs[t%len(r.refs)] = append(r.refs[t%len(r.refs)], cpu.Ref{VA: a.va(i), PC: a.pc, Write: true})
	r.total++
}

// streams converts the recording into cpu streams.
func (r *recorder) streams() []cpu.Stream {
	out := make([]cpu.Stream, 0, len(r.refs))
	for _, refs := range r.refs {
		out = append(out, &cpu.SliceStream{Refs: refs})
	}
	return out
}

// kernelBase carries the common Workload plumbing: named arrays
// allocated under the environment's mapping policy.
type kernelBase struct {
	name   string
	opts   Options
	arrays map[string]*array
	nextPC uint64
}

func newKernelBase(name string, opts Options) kernelBase {
	return kernelBase{name: name, opts: opts.withDefaults(), arrays: make(map[string]*array)}
}

// Name implements workload.Workload.
func (k *kernelBase) Name() string { return k.name }

// TapeKey implements workload.Workload: every kernel is constructed
// from Options alone and runs its algorithm on synthetic data derived
// deterministically from (options, seed), so the name plus the
// defaulted options fully identify the emitted reference streams
// modulo allocation bases.
func (k *kernelBase) TapeKey() string {
	return fmt.Sprintf("apps/%s/t%d/r%d/s%d", k.name, k.opts.Threads, k.opts.MaxRefs, k.opts.Scale)
}

// alloc creates one named array variable of n elements of elem bytes.
func (k *kernelBase) alloc(env *workload.Env, name string, n, elem uint64) (*array, error) {
	site := k.name + "/" + name
	va, err := env.Alloc(site, n*elem)
	if err != nil {
		return nil, fmt.Errorf("apps: %s: %w", site, err)
	}
	k.nextPC += 0x40
	a := &array{site: site, base: va, elem: elem, n: n, pc: 0x400000 + k.nextPC}
	k.arrays[site] = a
	return a, nil
}

// Sites lists every variable the kernel allocated.
func (k *kernelBase) Sites() []string {
	out := make([]string, 0, len(k.arrays))
	for s := range k.arrays {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// lineElems returns how many elements of size elem share a cache line,
// used by kernels to model line-granular streaming honestly.
func lineElems(elem uint64) uint64 {
	if elem >= geom.LineBytes {
		return 1
	}
	return geom.LineBytes / elem
}
