// Package kmeans implements Lloyd's algorithm with k-means++ seeding
// (paper §6.2, Eq. 2). It operates on plain float vectors so the same
// code clusters 15-dimensional bit-flip-rate vectors (the classic SDAM
// selector) and 256-dimensional learned embeddings (the DL-assisted
// selector).
//
// The assignment step — the O(n·k·dim) bulk of the work — fans points
// out over the parallel worker pool. Each point's nearest centroid is a
// pure function of (point, centroids) written to that point's own slot,
// and every floating-point reduction (loss, centroid sums, silhouette
// totals) runs serially in ascending point order afterwards, so results
// are bit-identical at any -jobs count.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Result holds a clustering outcome.
type Result struct {
	Centroids  [][]float64
	Assignment []int // index of the centroid owning each input point
	Loss       float64
	Iterations int
}

// Options tunes the algorithm. Zero values select sensible defaults.
type Options struct {
	MaxIterations int   // default 100
	Seed          int64 // RNG seed for k-means++; default 1
}

// tolerance is the relative loss improvement an iteration must make for
// Cluster to keep going.
const tolerance = 1e-6

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// eachPoint runs fn(i) for every point index, fanning contiguous chunks
// out over the worker pool. fn must write only state owned by index i;
// chunk boundaries then cannot affect any value, so the fill is
// bit-identical at any worker count.
func eachPoint(n int, fn func(i int)) {
	workers := parallel.Jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	spans := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		spans = append(spans, [2]int{lo, hi})
	}
	parallel.Map(spans, func(_ int, s [2]int) (struct{}, error) {
		for i := s[0]; i < s[1]; i++ {
			fn(i)
		}
		return struct{}{}, nil
	})
}

// nearest is the assignment kernel: the index and squared distance of
// the centroid closest to p. It performs no allocations.
//
//sdam:noalloc
func nearest(p []float64, centroids [][]float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := dist2(p, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// assignAll fills assign[i]/bestD[i] with each point's nearest centroid
// concurrently, then returns the loss summed serially in point order.
func assignAll(points, centroids [][]float64, assign []int, bestD []float64) float64 {
	eachPoint(len(points), func(i int) {
		assign[i], bestD[i] = nearest(points[i], centroids)
	})
	var loss float64
	for _, d := range bestD {
		loss += d
	}
	return loss
}

// Cluster partitions points into k clusters minimizing the within-cluster
// sum of squared distances (Eq. 2's L_cluster).
func Cluster(points [][]float64, k int, opts Options) (Result, error) {
	if len(points) == 0 {
		return Result{}, fmt.Errorf("kmeans: no points")
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("kmeans: k = %d", k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return Result{}, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if k > len(points) {
		k = len(points)
	}
	opts = opts.withDefaults()
	r := rand.New(rand.NewSource(opts.Seed))

	centroids := seedPlusPlus(points, k, r)
	assign := make([]int, len(points))
	bestD := make([]float64, len(points))
	prevLoss := math.Inf(1)
	var loss float64
	var iter int
	for iter = 1; iter <= opts.MaxIterations; iter++ {
		loss = assignAll(points, centroids, assign, bestD)
		// Update step: serial accumulation in point order.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d, x := range p {
				next[c][d] += x
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to avoid dead centroids. bestD already holds
				// each point's distance to its owning centroid.
				far, farD := 0, -1.0
				for i, d := range bestD {
					if d > farD {
						far, farD = i, d
					}
				}
				copy(next[c], points[far])
				continue
			}
			for d := range next[c] {
				next[c][d] /= float64(counts[c])
			}
		}
		centroids = next
		if prevLoss-loss <= tolerance*math.Max(prevLoss, 1) {
			break
		}
		prevLoss = loss
	}
	// Final assignment pass so the returned assignment and loss reflect
	// the returned (post-update) centroids.
	loss = assignAll(points, centroids, assign, bestD)
	return Result{Centroids: centroids, Assignment: assign, Loss: loss, Iterations: iter}, nil
}

// seedPlusPlus picks initial centroids with k-means++ weighting. The
// per-point distance-to-nearest-centroid is maintained incrementally —
// each round takes the min of the stored distance and the distance to
// the newest centroid, which equals the full recomputed min exactly
// (min over the same exact values) at a k-fold saving.
func seedPlusPlus(points [][]float64, k int, r *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(points[r.Intn(len(points))]))
	d2 := make([]float64, len(points))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		eachPoint(len(points), func(i int) {
			if d := dist2(points[i], newest); d < d2[i] {
				d2[i] = d
			}
		})
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		if sum == 0 {
			// All points coincide with centroids; duplicate any point.
			centroids = append(centroids, clone(points[r.Intn(len(points))]))
			continue
		}
		target := r.Float64() * sum
		var acc float64
		pick := len(points) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, clone(points[pick]))
	}
	return centroids
}

//sdam:noalloc
func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clone(p []float64) []float64 { return append([]float64(nil), p...) }

// Silhouette returns the mean silhouette coefficient of a clustering —
// the standard [-1, 1] quality score comparing each point's cohesion to
// its separation. Single-member clusters contribute zero.
//
// One pass over the other points buckets distances by cluster (O(n) per
// point instead of the naive O(n·k)); per-bucket sums accumulate in
// ascending j order — the same addition order per cluster as a
// cluster-at-a-time sweep — and the per-point scores reduce serially in
// point order, so the score is independent of the worker count.
func Silhouette(points [][]float64, assign []int, k int) float64 {
	if len(points) < 2 || k < 2 {
		return 0
	}
	n := len(points)
	workers := parallel.Jobs()
	if workers > n {
		workers = n
	}
	sums := make([][]float64, workers)
	counts := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		sums[w] = make([]float64, k)
		counts[w] = make([]float64, k)
	}
	scores := make([]float64, n)
	parallel.MapNWorker(workers, points, func(w, i int, p []float64) (struct{}, error) {
		sum, cnt := sums[w], counts[w]
		for c := 0; c < k; c++ {
			sum[c], cnt[c] = 0, 0
		}
		for j, q := range points {
			if i == j {
				continue
			}
			c := assign[j]
			sum[c] += math.Sqrt(dist2(p, q))
			cnt[c]++
		}
		own := assign[i]
		bBest := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own {
				continue
			}
			if cnt[c] > 0 && sum[c]/cnt[c] < bBest {
				bBest = sum[c] / cnt[c]
			}
		}
		if cnt[own] == 0 || math.IsInf(bBest, 1) {
			return struct{}{}, nil // singleton or no other cluster: neutral
		}
		a := sum[own] / cnt[own]
		scores[i] = (bBest - a) / math.Max(a, bBest)
		return struct{}{}, nil
	})
	var total float64
	for _, s := range scores {
		total += s
	}
	return total / float64(n)
}

// ChooseK clusters at every k in [2, maxK] and returns the clustering
// with the best silhouette — the "judicious K" selection the paper
// leaves to the operator (§6.2's quality-time trade-off). Falls back to
// k=1 when maxK < 2 or every silhouette is non-positive.
func ChooseK(points [][]float64, maxK int, opts Options) (Result, int, error) {
	if maxK > len(points) {
		maxK = len(points)
	}
	if maxK < 2 {
		res, err := Cluster(points, 1, opts)
		return res, 1, err
	}
	bestRes, bestK, bestScore := Result{}, 1, 0.0
	for k := 2; k <= maxK; k++ {
		res, err := Cluster(points, k, opts)
		if err != nil {
			return Result{}, 0, err
		}
		if s := Silhouette(points, res.Assignment, k); s > bestScore {
			bestRes, bestK, bestScore = res, k, s
		}
	}
	if bestK == 1 {
		res, err := Cluster(points, 1, opts)
		return res, 1, err
	}
	return bestRes, bestK, nil
}
