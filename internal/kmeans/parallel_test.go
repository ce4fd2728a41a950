package kmeans

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/parallel"
)

func genPoints(n, dim int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for d := range pts[i] {
			pts[i][d] = r.NormFloat64() + float64(i%5)
		}
	}
	return pts
}

func withJobs[T any](jobs int, fn func() T) T {
	prev := parallel.SetJobs(jobs)
	defer parallel.SetJobs(prev)
	return fn()
}

// TestClusterBitIdenticalAcrossJobs pins the parallel assignment step:
// per-point nearest-centroid fills independent slots and every float
// reduction runs serially in point order, so the whole clustering is
// bit-identical at any worker count.
func TestClusterBitIdenticalAcrossJobs(t *testing.T) {
	pts := genPoints(300, 15, 11)
	serial := withJobs(1, func() Result {
		res, err := Cluster(pts, 7, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	for _, jobs := range []int{2, 8} {
		par := withJobs(jobs, func() Result {
			res, err := Cluster(pts, 7, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("jobs=%d: clustering diverged from serial run", jobs)
		}
	}
}

// TestChooseKBitIdenticalAcrossJobs covers the silhouette-driven K
// selection, whose per-point scores also reduce in fixed order.
func TestChooseKBitIdenticalAcrossJobs(t *testing.T) {
	pts := genPoints(120, 8, 3)
	type outcome struct {
		res Result
		k   int
	}
	run := func(jobs int) outcome {
		return withJobs(jobs, func() outcome {
			res, k, err := ChooseK(pts, 6, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res, k}
		})
	}
	serial := run(1)
	for _, jobs := range []int{2, 8} {
		if par := run(jobs); !reflect.DeepEqual(serial, par) {
			t.Fatalf("jobs=%d: ChooseK diverged from serial run", jobs)
		}
	}
}

// TestSilhouettePanicReachesCaller: a fault inside a parallel span is
// not swallowed. An out-of-range assignment panics in whichever worker
// scores a point, and the caller sees that panic at every worker count
// instead of a score computed from empty slots.
func TestSilhouettePanicReachesCaller(t *testing.T) {
	pts := genPoints(40, 3, 5)
	assign := make([]int, len(pts))
	assign[len(assign)-1] = 7 // k is 2
	for _, jobs := range []int{1, 4} {
		panicked := withJobs(jobs, func() (p bool) {
			defer func() { p = recover() != nil }()
			Silhouette(pts, assign, 2)
			return false
		})
		if !panicked {
			t.Fatalf("jobs=%d: the panic was swallowed", jobs)
		}
	}
}

// TestAssignmentKernelZeroAlloc pins the assignment inner loop —
// dist2 plus the nearest-centroid scan — to zero allocations.
func TestAssignmentKernelZeroAlloc(t *testing.T) {
	pts := genPoints(64, 15, 9)
	centroids := genPoints(8, 15, 10)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			_, d := nearest(p, centroids)
			sink += d
		}
	})
	if allocs != 0 {
		t.Fatalf("assignment kernel allocates %v times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		sink += dist2(pts[0], pts[1])
	})
	if allocs != 0 {
		t.Fatalf("dist2 allocates %v times per run, want 0", allocs)
	}
	_ = sink
}
