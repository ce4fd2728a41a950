package kmeans

import (
	"math/rand"
	"testing"
)

// gaussianBlobs generates n points around each of the given centers.
func gaussianBlobs(r *rand.Rand, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var pts [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for d := range p {
				p[d] = c[d] + r.NormFloat64()*spread
			}
			pts = append(pts, p)
			labels = append(labels, ci)
		}
	}
	return pts, labels
}

func TestRecoversWellSeparatedClusters(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	pts, labels := gaussianBlobs(r, centers, 50, 0.5)
	res, err := Cluster(pts, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All points with the same true label must share an assignment.
	group := map[int]int{}
	for i, l := range labels {
		if g, ok := group[l]; ok {
			if res.Assignment[i] != g {
				t.Fatalf("cluster split: point %d label %d", i, l)
			}
		} else {
			group[l] = res.Assignment[i]
		}
	}
	if len(group) != 3 {
		t.Fatalf("recovered %d groups", len(group))
	}
}

func TestLossDecreasesWithMoreClusters(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts, _ := gaussianBlobs(r, [][]float64{{0, 0}, {5, 5}, {10, 0}, {0, 10}}, 40, 1.0)
	var prev float64
	for i, k := range []int{1, 2, 4, 8} {
		res, err := Cluster(pts, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Loss > prev {
			t.Fatalf("loss increased from %.2f to %.2f at k=%d", prev, res.Loss, k)
		}
		prev = res.Loss
	}
}

func TestKClampedToPointCount(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	res, err := Cluster(pts, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	if res.Loss > 1e-12 {
		t.Fatalf("k=n loss = %v, want 0", res.Loss)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Cluster(nil, 2, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Cluster([][]float64{{1}}, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cluster([][]float64{{1}, {1, 2}}, 1, Options{}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := [][]float64{{3, 3}, {3, 3}, {3, 3}, {3, 3}}
	res, err := Cluster(pts, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != 0 {
		t.Fatalf("identical points loss = %v", res.Loss)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts, _ := gaussianBlobs(r, [][]float64{{0, 0}, {8, 8}}, 30, 1)
	a, _ := Cluster(pts, 2, Options{Seed: 42})
	b, _ := Cluster(pts, 2, Options{Seed: 42})
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed gave different assignments")
		}
	}
}

func TestClusterLossMatchesRecomputedLoss(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts, _ := gaussianBlobs(r, [][]float64{{0, 0}, {6, 6}}, 25, 1)
	res, err := Cluster(pts, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for i, p := range pts {
		got += dist2(p, res.Centroids[res.Assignment[i]])
	}
	if got != res.Loss {
		t.Fatalf("recomputed loss = %v, Cluster loss = %v", got, res.Loss)
	}
}

func TestLloydLossMonotone(t *testing.T) {
	// DESIGN.md invariant 8: rerunning with more allowed iterations never
	// worsens the final loss.
	r := rand.New(rand.NewSource(9))
	pts, _ := gaussianBlobs(r, [][]float64{{0, 0}, {4, 4}, {8, 0}}, 30, 1.5)
	short, _ := Cluster(pts, 3, Options{MaxIterations: 1, Seed: 3})
	long, _ := Cluster(pts, 3, Options{MaxIterations: 50, Seed: 3})
	if long.Loss > short.Loss+1e-9 {
		t.Fatalf("more iterations worsened loss: %v -> %v", short.Loss, long.Loss)
	}
}

func TestSilhouetteSeparatedVsMerged(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts, _ := gaussianBlobs(r, [][]float64{{0, 0}, {20, 20}}, 30, 0.5)
	good, _ := Cluster(pts, 2, Options{})
	if s := Silhouette(pts, good.Assignment, 2); s < 0.8 {
		t.Fatalf("separated blobs silhouette %.2f, want ≈1", s)
	}
	// A random assignment scores far worse.
	bad := make([]int, len(pts))
	for i := range bad {
		bad[i] = r.Intn(2)
	}
	if s := Silhouette(pts, bad, 2); s > 0.3 {
		t.Fatalf("random assignment silhouette %.2f, want low", s)
	}
	if Silhouette(pts, good.Assignment, 1) != 0 {
		t.Fatal("k=1 silhouette must be 0")
	}
}

func TestChooseKFindsTrueClusterCount(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	pts, _ := gaussianBlobs(r, [][]float64{{0, 0}, {15, 0}, {0, 15}}, 25, 0.8)
	_, k, err := ChooseK(pts, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("ChooseK = %d, want 3", k)
	}
}

func TestChooseKDegenerate(t *testing.T) {
	res, k, err := ChooseK([][]float64{{1}}, 8, Options{})
	if err != nil || k != 1 || len(res.Centroids) != 1 {
		t.Fatalf("single point: k=%d err=%v", k, err)
	}
}
