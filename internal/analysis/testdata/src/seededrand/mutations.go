package fixture

import (
	"math/rand"
	"time"
)

// The cases in this file reproduce scratch mutations of production code
// that compiled and passed go vet, go test ./..., go test -race -short
// ./... and go test -race ./internal/experiments; only this rule
// rejected them (DESIGN.md §30).

// kmeans' k-means++ seeding drawing its fallback centroid from the
// global generator: the branch runs only when every point coincides
// with a centroid, which no test input reaches.
func fallbackCentroid(points [][]float64) []float64 {
	return points[rand.Intn(len(points))] // want "global rand.Intn"
}

// kmeans.Cluster time-boxing Lloyd's iterations on the host clock: the
// iteration count, and so the clustering, would follow the host's
// speed, but every test input converges long before the budget.
func lloyd(maxIter int, step func() bool) int {
	t0 := time.Now() // want "time.Now reads the host wall clock"
	iter := 1
	for ; iter <= maxIter; iter++ {
		if time.Since(t0) > 2*time.Second { // want "time.Since reads the host wall clock"
			break
		}
		if step() {
			break
		}
	}
	return iter
}
