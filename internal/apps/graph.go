package apps

import (
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/lfg"
	"repro/internal/memo"
	"repro/internal/workload"
)

// Graph is a synthetic directed graph in CSR form, generated with a
// degree-skewed edge distribution in the spirit of the Graph500 (RMAT)
// generator the paper uses (§7.3: scale 20, edge factor 16, different
// seeds for profiling vs test).
type Graph struct {
	N       int
	Offsets []uint32
	Edges   []uint32
}

// GenGraph builds a graph with n vertices and roughly edgeFactor·n
// edges. Half the endpoints concentrate on a hot prefix of vertices,
// giving the skewed degree distribution of RMAT-style graphs.
func GenGraph(n, edgeFactor int, seed int64) *Graph {
	return genGraph(n, edgeFactor, seed, bucketShift(n))
}

// bucketShift is log2 of the vertices per bucket of genGraph's
// partition pass: the smallest power of two that splits [0, n) into at
// most 64 buckets.
func bucketShift(n int) uint {
	if vb := vertexBits(n); vb > 6 {
		return vb - 6
	}
	return 0
}

// vertexBits is the number of bits a vertex ID below n needs.
func vertexBits(n int) uint { return uint(bits.Len(uint(n - 1))) }

// genGraph is GenGraph with buckets of 1<<shift source vertices. It
// draws every edge in order, then places each vertex's edges into
// Edges in draw order (DESIGN.md §27). Scattering straight from the
// draw columns writes all over Edges; instead a stable partition pass
// moves the edges into buckets of source vertices, each packed as
// (u mod bucket)<<vertexBits | v in one uint32, and a placement pass
// scatters each bucket within its own slice of Edges, small enough to
// stay in cache. When the packed edge needs more than 32 bits it
// scatters straight from the draw columns.
func genGraph(n, edgeFactor int, seed int64, shift uint) *Graph {
	g := &Graph{N: n, Offsets: make([]uint32, n+1)}
	m := n * edgeFactor
	us, vs := make([]uint32, m), make([]uint32, m)
	drawEdges(lfg.New(seed), n, us, vs, g.Offsets)
	// Offsets[u] now holds u's out-degree; an inclusive prefix sum turns
	// it into the end of u's edge range. Placing edges back to front,
	// each one decrementing its source's cursor, leaves every vertex's
	// edges in draw order and Offsets[u] at the start of u's range.
	off := g.Offsets
	for u := 1; u < n; u++ {
		off[u] += off[u-1]
	}
	off[n] = uint32(m)
	vb := vertexBits(n)
	if shift+vb > 32 {
		g.Edges = make([]uint32, m)
		for i := m - 1; i >= 0; i-- {
			u := us[i]
			off[u]--
			g.Edges[off[u]] = vs[i]
		}
		return g
	}
	// Partition: bucket b holds sources [b<<shift, (b+1)<<shift), whose
	// edges end up in the same index range of Edges as they now take in
	// packed. ends[b] walks from the range's start to its end.
	nb := (n-1)>>shift + 1
	ends := make([]uint32, nb)
	for b := 1; b < nb; b++ {
		ends[b] = off[b<<shift-1]
	}
	packed := make([]uint32, m)
	local := uint32(1)<<shift - 1
	vs = vs[:len(us)]
	for i, u := range us {
		b := u >> shift
		packed[ends[b]] = (u&local)<<vb | vs[i]
		ends[b]++
	}
	// Placement: the draw column us is spent, so Edges takes its array.
	edges := us
	vmask := uint32(1)<<vb - 1
	lo := uint32(0)
	for b, hi := range ends {
		base := uint32(b << shift)
		for i := hi; i > lo; i-- {
			e := packed[i-1]
			u := base + e>>vb
			off[u]--
			edges[off[u]] = e & vmask
		}
		lo = hi
	}
	g.Edges = edges
	return g
}

// drawEdges draws every edge's endpoints into us and vs in order and
// counts each source's out-degree into deg. Each edge draws its source
// u = Intn(n), a coin Intn(2), and its target v = Intn(hot) on heads
// or Intn(n) on tails, where the hot prefix is the first n/16
// vertices. When n and hot are powers of two up to 2^30, each Intn is
// one masked Int31, so that loop reads the draws directly.
func drawEdges(src *lfg.Source, n int, us, vs, deg []uint32) {
	hot := n / 16
	if hot == 0 {
		hot = 1
	}
	vs = vs[:len(us)]
	if n&(n-1) != 0 || hot&(hot-1) != 0 || n > 1<<30 {
		for i := range us {
			u := uint32(src.Intn(n))
			var v uint32
			if src.Intn(2) == 0 {
				v = uint32(src.Intn(hot))
			} else {
				v = uint32(src.Intn(n))
			}
			us[i], vs[i] = u, v
			deg[u]++
		}
		return
	}
	// Int31() is bits 32–62 of a draw; masks[coin] is hot's mask on
	// heads and n's on tails.
	masks := [2]uint32{uint32(hot - 1), uint32(n - 1)}
	for i := range us {
		u := uint32(src.Uint64()>>32) & masks[1]
		coin := src.Uint64() >> 32 & 1
		v := uint32(src.Uint64()>>32) & masks[coin]
		us[i], vs[i] = u, v
		deg[u]++
	}
}

// graphKey is GenGraph's argument list.
type graphKey struct {
	n, edgeFactor int
	seed          int64
}

// graphs holds every graph the kernels asked for, up to 64 MiB. BFS and
// PageRank ask for the same graph at every scale and seed, and a sweep
// asks for each one once per kernel; GenGraph is a pure function of its
// arguments and the kernels only read the graph, so a shared graph is
// the same input as a fresh one.
var graphs = memo.New[graphKey, *Graph](memo.Config[*Graph]{
	Name:   "graph",
	Budget: 64 << 20,
	Size:   func(g *Graph) int64 { return int64(len(g.Offsets)+len(g.Edges)) * 4 },
})

// sharedGraph returns GenGraph(n, edgeFactor, seed) from the graph memo,
// generating it uncached once the memo's budget is spent. The result is
// shared and must not be modified.
func sharedGraph(n, edgeFactor int, seed int64) *Graph {
	gen := func() (*Graph, error) { return GenGraph(n, edgeFactor, seed), nil }
	g, err := graphs.Do(graphKey{n, edgeFactor, seed}, gen)
	if err != nil {
		g, _ = gen()
	}
	return g
}

// BFS is the breadth-first-search benchmark: level-synchronous frontier
// expansion over the CSR graph. Variables: offsets (strided), edges
// (streaming bursts), depth (random gathers/scatters), frontier
// (streaming queue).
type BFS struct {
	kernelBase
	vertices   int
	edgeFactor int

	offsets, edges, depth, frontier *array
}

// NewBFS creates the BFS kernel. Scale multiplies the 32k-vertex base
// size.
func NewBFS(opts Options) *BFS {
	o := opts.withDefaults()
	return &BFS{kernelBase: newKernelBase("bfs", o), vertices: 32768 * o.Scale, edgeFactor: 16}
}

// Setup implements workload.Workload.
func (b *BFS) Setup(env *workload.Env) error {
	var err error
	if b.offsets, err = b.alloc(env, "offsets", uint64(b.vertices+1), 4); err != nil {
		return err
	}
	if b.edges, err = b.alloc(env, "edges", uint64(b.vertices*b.edgeFactor), 4); err != nil {
		return err
	}
	if b.depth, err = b.alloc(env, "depth", uint64(b.vertices), 4); err != nil {
		return err
	}
	if b.frontier, err = b.alloc(env, "frontier", uint64(b.vertices), 4); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload by actually running BFS from a
// seed-dependent root and recording every reference. Only whether a
// vertex was reached decides addresses, so its depth is not kept.
func (b *BFS) Streams(seed int64) []cpu.Stream {
	g := sharedGraph(b.vertices, b.edgeFactor, seed)
	rec := newRecorder(b.opts.Threads, b.opts.MaxRefs)

	seen := make([]bool, g.N)
	root := int(uint64(seed*7919) % uint64(g.N))
	seen[root] = true
	frontier := []uint32{uint32(root)}
	for len(frontier) > 0 && !rec.full() {
		var next []uint32
		for fi, u := range frontier {
			t := fi % b.opts.Threads
			rec.touch(t, b.frontier, uint64(fi)) // read frontier entry
			rec.touch(t, b.offsets, uint64(u))   // offsets[u]
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			for e := lo; e < hi; e++ {
				rec.touch(t, b.edges, uint64(e)) // streaming edge scan
				v := g.Edges[e]
				rec.touch(t, b.depth, uint64(v)) // random depth check
				if !seen[v] {
					seen[v] = true
					rec.write(t, b.depth, uint64(v))
					rec.write(t, b.frontier, uint64(len(next)))
					next = append(next, v)
				}
			}
			if rec.full() {
				break
			}
		}
		frontier = next
	}
	return rec.streams()
}

// PageRank runs power iterations over the CSR graph. Variables: ranks
// (random gathers over sources), newRanks (streaming writes), offsets
// and edges (streaming scans).
type PageRank struct {
	kernelBase
	vertices   int
	edgeFactor int

	offsets, edges, ranks, newRanks *array
}

// NewPageRank creates the PageRank kernel.
func NewPageRank(opts Options) *PageRank {
	o := opts.withDefaults()
	return &PageRank{kernelBase: newKernelBase("pagerank", o), vertices: 32768 * o.Scale, edgeFactor: 16}
}

// Setup implements workload.Workload.
func (p *PageRank) Setup(env *workload.Env) error {
	var err error
	if p.offsets, err = p.alloc(env, "offsets", uint64(p.vertices+1), 4); err != nil {
		return err
	}
	if p.edges, err = p.alloc(env, "edges", uint64(p.vertices*p.edgeFactor), 4); err != nil {
		return err
	}
	if p.ranks, err = p.alloc(env, "ranks", uint64(p.vertices), 8); err != nil {
		return err
	}
	if p.newRanks, err = p.alloc(env, "newranks", uint64(p.vertices), 8); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload. Power iteration visits every
// vertex and edge in the same order whatever the ranks are, so the
// ranks themselves are not computed.
func (p *PageRank) Streams(seed int64) []cpu.Stream {
	g := sharedGraph(p.vertices, p.edgeFactor, seed)
	rec := newRecorder(p.opts.Threads, p.opts.MaxRefs)

	for iter := 0; iter < 3 && !rec.full(); iter++ {
		for u := 0; u < g.N && !rec.full(); u++ {
			t := u % p.opts.Threads
			rec.touch(t, p.offsets, uint64(u))
			for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
				rec.touch(t, p.edges, uint64(e))
				rec.touch(t, p.ranks, uint64(g.Edges[e])) // random gather
			}
			rec.write(t, p.newRanks, uint64(u)) // streaming store
		}
	}
	return rec.streams()
}

// SSSP is single-source shortest path via Bellman-Ford rounds over the
// edge array — the streaming-relaxation formulation common on
// accelerators. Variables: offsets/edges/weights (streaming), dist
// (random read-modify-write).
type SSSP struct {
	kernelBase
	vertices   int
	edgeFactor int

	offsets, edges, weights, dist *array
}

// NewSSSP creates the SSSP kernel.
func NewSSSP(opts Options) *SSSP {
	o := opts.withDefaults()
	return &SSSP{kernelBase: newKernelBase("sssp", o), vertices: 16384 * o.Scale, edgeFactor: 16}
}

// Setup implements workload.Workload.
func (s *SSSP) Setup(env *workload.Env) error {
	var err error
	if s.offsets, err = s.alloc(env, "offsets", uint64(s.vertices+1), 4); err != nil {
		return err
	}
	if s.edges, err = s.alloc(env, "edges", uint64(s.vertices*s.edgeFactor), 4); err != nil {
		return err
	}
	if s.weights, err = s.alloc(env, "weights", uint64(s.vertices*s.edgeFactor), 4); err != nil {
		return err
	}
	if s.dist, err = s.alloc(env, "dist", uint64(s.vertices), 4); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload.
func (s *SSSP) Streams(seed int64) []cpu.Stream {
	g := sharedGraph(s.vertices, s.edgeFactor, seed)
	r := lfg.New(seed ^ 0xabcdef)
	w := make([]uint32, len(g.Edges))
	for i := range w {
		w[i] = uint32(1 + r.Intn(100))
	}
	rec := newRecorder(s.opts.Threads, s.opts.MaxRefs)

	const inf = int64(1) << 60
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[uint64(seed*104729)%uint64(g.N)] = 0
	for round := 0; round < 4 && !rec.full(); round++ {
		changed := false
		for u := 0; u < g.N && !rec.full(); u++ {
			t := u % s.opts.Threads
			rec.touch(t, s.offsets, uint64(u))
			rec.touch(t, s.dist, uint64(u))
			if dist[u] == inf {
				continue
			}
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			for e := lo; e < hi; e++ {
				rec.touch(t, s.edges, uint64(e))
				rec.touch(t, s.weights, uint64(e))
				v := g.Edges[e]
				rec.touch(t, s.dist, uint64(v)) // random relax read
				if nd := dist[u] + int64(w[e]); nd < dist[v] {
					dist[v] = nd
					rec.write(t, s.dist, uint64(v))
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return rec.streams()
}
