package apps

import (
	"math/rand"

	"repro/internal/cpu"
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
	r := rand.New(rand.NewSource(seed))
	g := &Graph{N: n, Offsets: make([]uint32, n+1)}
	m := n * edgeFactor
	us, vs := make([]uint32, m), make([]uint32, m)
	hot := n / 16
	if hot == 0 {
		hot = 1
	}
	for i := range us {
		u := uint32(r.Intn(n))
		var v uint32
		if r.Intn(2) == 0 {
			v = uint32(r.Intn(hot))
		} else {
			v = uint32(r.Intn(n))
		}
		us[i], vs[i] = u, v
		g.Offsets[u]++
	}
	// Offsets[u] now holds u's out-degree; an inclusive prefix sum turns
	// it into the end of u's edge range. Placing edges back to front,
	// each one decrementing its source's cursor, leaves every vertex's
	// edges in draw order and Offsets[u] at the start of u's range.
	for u := 1; u < n; u++ {
		g.Offsets[u] += g.Offsets[u-1]
	}
	g.Offsets[n] = uint32(m)
	g.Edges = make([]uint32, m)
	for i := m - 1; i >= 0; i-- {
		u := us[i]
		g.Offsets[u]--
		g.Edges[g.Offsets[u]] = vs[i]
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
// seed-dependent root and recording every reference.
func (b *BFS) Streams(seed int64) []cpu.Stream {
	g := GenGraph(b.vertices, b.edgeFactor, seed)
	rec := newRecorder(b.opts.Threads, b.opts.MaxRefs)

	depth := make([]int32, g.N)
	for i := range depth {
		depth[i] = -1
	}
	root := int(uint64(seed*7919) % uint64(g.N))
	depth[root] = 0
	frontier := []uint32{uint32(root)}
	level := int32(0)
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
				if depth[v] < 0 {
					depth[v] = level + 1
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
		level++
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

// Streams implements workload.Workload.
func (p *PageRank) Streams(seed int64) []cpu.Stream {
	g := GenGraph(p.vertices, p.edgeFactor, seed)
	rec := newRecorder(p.opts.Threads, p.opts.MaxRefs)

	ranks := make([]float64, g.N)
	for i := range ranks {
		ranks[i] = 1 / float64(g.N)
	}
	const damping = 0.85
	for iter := 0; iter < 3 && !rec.full(); iter++ {
		next := make([]float64, g.N)
		for u := 0; u < g.N && !rec.full(); u++ {
			t := u % p.opts.Threads
			rec.touch(t, p.offsets, uint64(u))
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			var sum float64
			for e := lo; e < hi; e++ {
				rec.touch(t, p.edges, uint64(e))
				v := g.Edges[e]
				rec.touch(t, p.ranks, uint64(v)) // random gather
				outDeg := g.Offsets[v+1] - g.Offsets[v]
				if outDeg > 0 {
					sum += ranks[v] / float64(outDeg)
				}
			}
			next[u] = (1-damping)/float64(g.N) + damping*sum
			rec.write(t, p.newRanks, uint64(u)) // streaming store
		}
		ranks = next
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
	g := GenGraph(s.vertices, s.edgeFactor, seed)
	r := rand.New(rand.NewSource(seed ^ 0xabcdef))
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
