package fixture

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// The cases in this file reproduce scratch mutations of production code
// that compiled and passed go vet, go test ./..., go test -race -short
// ./... and go test -race ./internal/experiments; only this rule
// rejected them (DESIGN.md §30). A write that runs only on an error
// path, or one a mutex or an atomic guards, is invisible to the race
// detector, yet still depends on scheduling.

var errCell = errors.New("cell failed")

// system.Compare numbering its failed configurations in the error text:
// the count each cell reads depends on which cells failed first, and no
// test fails two cells at once.
func compareFailures(kinds []int) ([]int, error) {
	failed := 0
	return parallel.Map(kinds, func(_ int, k int) (int, error) {
		if k < 0 {
			failed++ // want "no slot owns it"
			return k, fmt.Errorf("kind %d (%d of %d failed): %w", k, failed, len(kinds), errCell)
		}
		return k, nil
	})
}

// kmeans.Silhouette summing its per-point scores under a mutex: the
// float sum's order, and so its last bits, follows the schedule.
func silhouetteLocked(scores []float64) float64 {
	var mu sync.Mutex
	var total float64
	parallel.Map(scores, func(_ int, s float64) (struct{}, error) {
		mu.Lock()
		total += math.Abs(s) // want "no slot owns it"
		mu.Unlock()
		return struct{}{}, nil
	})
	return total
}

// The same scores collected by a mutex-guarded append, then summed
// serially in arrival order.
func silhouetteAppend(scores []float64) float64 {
	var mu sync.Mutex
	got := make([]float64, 0, len(scores))
	parallel.Map(scores, func(_ int, s float64) (struct{}, error) {
		mu.Lock()
		got = append(got, math.Abs(s)) // want "append to captured slice"
		mu.Unlock()
		return struct{}{}, nil
	})
	var total float64
	for _, s := range got {
		total += s
	}
	return total
}

// The same scores written to a slot claimed from an atomic counter
// rather than the item's own index.
func silhouetteClaimed(scores []float64) float64 {
	out := make([]float64, len(scores))
	var next atomic.Int64
	parallel.Map(scores, func(_ int, s float64) (struct{}, error) {
		out[next.Add(1)-1] = math.Abs(s) // want "non-index-derived position"
		return struct{}{}, nil
	})
	var total float64
	for _, s := range out {
		total += s
	}
	return total
}
