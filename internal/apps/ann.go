package apps

import (
	"math"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// dims is the vector dimensionality shared by the ML/IR kernels; 32
// float32 values = 2 cache lines per vector.
const dims = 32

// genVectors creates n unit-ish vectors around k latent centers so that
// clustering/search kernels behave like real embeddings. The points are
// views into one flat backing slice; each view's capacity ends at its
// own last coordinate, so appending to a point copies it instead of
// overwriting the next one.
func genVectors(r *rand.Rand, n, k int) [][]float32 {
	centers := make([][]float32, k)
	for c := range centers {
		centers[c] = make([]float32, dims)
		for d := range centers[c] {
			centers[c][d] = float32(r.NormFloat64())
		}
	}
	flat := make([]float32, n*dims)
	out := make([][]float32, n)
	for i := range out {
		c := centers[r.Intn(k)]
		v := flat[i*dims : (i+1)*dims : (i+1)*dims]
		for d := range v {
			v[d] = c[d] + float32(r.NormFloat64())*0.3
		}
		out[i] = v
	}
	return out
}

func l2(a, b []float32) float64 {
	var s float64
	for d := range a {
		diff := float64(a[d] - b[d])
		s += diff * diff
	}
	return s
}

// KMeansApp is the K-Means benchmark (the application, not the mapping
// selector): Lloyd iterations over a structure-of-arrays point set —
// coordinate d of point i lives at planes[d·N + i], the layout
// vectorized kernels use. Reading one point therefore gathers `dims`
// addresses a large power-of-two stride apart, the access shape that
// collapses channel interleaving under a fixed mapping. Variables:
// planes (strided gathers), centroids (hot, small), assign (streaming
// writes).
type KMeansApp struct {
	kernelBase
	nPoints, k int

	planes, centroids, assign *array
}

// NewKMeansApp creates the kernel.
func NewKMeansApp(opts Options) *KMeansApp {
	o := opts.withDefaults()
	return &KMeansApp{kernelBase: newKernelBase("kmeans", o), nPoints: 1 << 16 * o.Scale, k: 16}
}

// Setup implements workload.Workload.
func (k *KMeansApp) Setup(env *workload.Env) error {
	var err error
	if k.planes, err = k.alloc(env, "planes", uint64(k.nPoints*dims), 4); err != nil {
		return err
	}
	if k.centroids, err = k.alloc(env, "centroids", uint64(k.k), dims*4); err != nil {
		return err
	}
	if k.assign, err = k.alloc(env, "assign", uint64(k.nPoints), 4); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload. Threads take contiguous point
// blocks (static scheduling).
func (k *KMeansApp) Streams(seed int64) []cpu.Stream {
	r := rand.New(rand.NewSource(seed))
	pts := genVectors(r, k.nPoints, k.k)
	cents := make([][]float32, k.k)
	for c := range cents {
		cents[c] = append([]float32(nil), pts[r.Intn(len(pts))]...)
	}
	rec := newRecorder(k.opts.Threads, k.opts.MaxRefs)
	block := (k.nPoints + k.opts.Threads - 1) / k.opts.Threads

	for iter := 0; iter < 2 && !rec.full(); iter++ {
		sums := make([][]float64, k.k)
		counts := make([]int, k.k)
		for c := range sums {
			sums[c] = make([]float64, dims)
		}
		for off := 0; off < block && !rec.full(); off++ {
			for t := 0; t < k.opts.Threads; t++ {
				i := t*block + off
				if i >= k.nPoints {
					continue
				}
				// SoA gather: one touch per coordinate plane, each a
				// nPoints·4B stride apart, so one point costs `dims`
				// lines spread across the planes.
				for d := 0; d < dims; d++ {
					rec.touch(t, k.planes, uint64(d*k.nPoints+i))
				}
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k.k; c++ {
					rec.touch(t, k.centroids, uint64(c))
					if d := l2(pts[i], cents[c]); d < bestD {
						best, bestD = c, d
					}
				}
				rec.write(t, k.assign, uint64(i))
				counts[best]++
				for d := range sums[best] {
					sums[best][d] += float64(pts[i][d])
				}
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				continue
			}
			for d := range cents[c] {
				cents[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
	}
	return rec.streams()
}

// HNSW is the graph-based approximate nearest-neighbor benchmark: greedy
// best-first search over a navigable small-world graph. Variables:
// vectors (random gathers), neighbors (pointer-chase adjacency reads),
// visited (random bitmap).
type HNSW struct {
	kernelBase
	nPoints, degree, queries int

	vectors, neighbors, visited *array
}

// NewHNSW creates the kernel.
func NewHNSW(opts Options) *HNSW {
	o := opts.withDefaults()
	return &HNSW{
		kernelBase: newKernelBase("hnsw", o),
		nPoints:    1 << 15 * o.Scale, degree: 16, queries: 256,
	}
}

// Setup implements workload.Workload.
func (h *HNSW) Setup(env *workload.Env) error {
	var err error
	if h.vectors, err = h.alloc(env, "vectors", uint64(h.nPoints), dims*4); err != nil {
		return err
	}
	if h.neighbors, err = h.alloc(env, "neighbors", uint64(h.nPoints*h.degree), 4); err != nil {
		return err
	}
	if h.visited, err = h.alloc(env, "visited", uint64(h.nPoints), 1); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload: builds a randomized NSW graph
// and answers queries with greedy search.
func (h *HNSW) Streams(seed int64) []cpu.Stream {
	r := rand.New(rand.NewSource(seed))
	pts := genVectors(r, h.nPoints, 32)
	// Graph: random long links + a few near links via sampled candidates,
	// the standard cheap NSW approximation.
	// adj[i*degree+d] is point i's d-th neighbor, the layout of the
	// simulated neighbors array.
	adj := make([]int32, h.nPoints*h.degree)
	for i := range adj {
		adj[i] = int32(r.Intn(h.nPoints))
	}
	rec := newRecorder(h.opts.Threads, h.opts.MaxRefs)

	for q := 0; q < h.queries && !rec.full(); q++ {
		t := q % h.opts.Threads
		query := pts[r.Intn(len(pts))]
		cur := int32(r.Intn(h.nPoints))
		rec.touch(t, h.vectors, uint64(cur))
		curD := l2(query, pts[cur])
		for hop := 0; hop < 64; hop++ {
			improved := false
			base := uint64(cur) * uint64(h.degree)
			for d := 0; d < h.degree; d++ {
				rec.touch(t, h.neighbors, base+uint64(d)) // adjacency read
				nb := adj[int(cur)*h.degree+d]
				rec.touch(t, h.visited, uint64(nb)) // visited check
				rec.touch(t, h.vectors, uint64(nb)) // vector gather
				if nd := l2(query, pts[nb]); nd < curD {
					cur, curD = nb, nd
					improved = true
				}
			}
			if !improved || rec.full() {
				break
			}
		}
	}
	return rec.streams()
}

// IVFPQ is the inverted-file product-quantization scan (Johnson et al.):
// each query probes a few coarse lists and scores their PQ codes against
// a small lookup table. Codes are stored plane-major (sub-quantizer m of
// vector v at codes[m·nVectors + v]) as SIMD scan kernels lay them out,
// so scoring one vector gathers 16 addresses a large power-of-two stride
// apart. Variables: codes (strided gathers), listOffsets (small), lut
// (hot), coarse centroids (hot).
type IVFPQ struct {
	kernelBase
	nVectors, nLists, nProbe, queries int

	codes, listOffsets, lut, coarse *array
}

// NewIVFPQ creates the kernel.
func NewIVFPQ(opts Options) *IVFPQ {
	o := opts.withDefaults()
	return &IVFPQ{
		kernelBase: newKernelBase("ivfpq", o),
		nVectors:   1 << 17 * o.Scale, nLists: 256, nProbe: 8, queries: 128,
	}
}

// Setup implements workload.Workload.
func (v *IVFPQ) Setup(env *workload.Env) error {
	var err error
	// 16 sub-quantizer planes of one byte per vector, plane-major.
	if v.codes, err = v.alloc(env, "codes", uint64(16*v.nVectors), 1); err != nil {
		return err
	}
	if v.listOffsets, err = v.alloc(env, "list_offsets", uint64(v.nLists+1), 4); err != nil {
		return err
	}
	if v.lut, err = v.alloc(env, "lut", 16*256, 1); err != nil {
		return err
	}
	if v.coarse, err = v.alloc(env, "coarse", uint64(v.nLists), dims*4); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload.
func (v *IVFPQ) Streams(seed int64) []cpu.Stream {
	r := rand.New(rand.NewSource(seed))
	perList := v.nVectors / v.nLists
	rec := newRecorder(v.opts.Threads, v.opts.MaxRefs)

	lineVecs := int(lineElems(1)) // code bytes per cache line
	for q := 0; q < v.queries && !rec.full(); q++ {
		t := q % v.opts.Threads
		// Coarse quantization: scan all list centroids (hot).
		for c := 0; c < v.nLists; c += 4 {
			rec.touch(t, v.coarse, uint64(c))
		}
		// Probe nProbe lists: score each list's vectors by gathering all
		// 16 plane bytes (one line covers 64 vectors per plane, so the
		// scan touches each plane line once per 64-vector block).
		for p := 0; p < v.nProbe; p++ {
			list := r.Intn(v.nLists)
			rec.touch(t, v.listOffsets, uint64(list))
			start := list * perList
			for blk := 0; blk < perList/lineVecs && !rec.full(); blk++ {
				for m := 0; m < 16; m++ { // plane-major gather
					rec.touch(t, v.codes, uint64(m*v.nVectors+start+blk*lineVecs))
				}
				rec.touch(t, v.lut, uint64(r.Intn(16*256))) // hot LUT
			}
		}
	}
	return rec.streams()
}
