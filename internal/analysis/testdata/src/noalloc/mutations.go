package fixture

import "sort"

// The cases in this file reproduce scratch mutations of production code
// that compiled and passed go vet, go test ./..., go test -race -short
// ./... and go test -race ./internal/experiments; only this rule
// rejected them (DESIGN.md §30).

type device struct{ issued []float64 }

// hbm.Device.AccessLine appending every request's issue time to a
// timeline. The append reallocates only when the slice outgrows its
// capacity, and testing.AllocsPerRun reports whole allocations per
// call, rounded down, so hbm's zero-alloc pin still reads 0.
//
//sdam:noalloc
func (d *device) accessLine(at float64) float64 {
	d.issued = append(d.issued, at) // want "append may grow"
	return at
}

type mshrRing struct {
	times []float64
	n     int
}

// cpu's MSHR ring rewritten as an insertion into a sorted slice that
// evictions reslice from the front: every result stays bit-identical,
// and internal/cpu has no AllocsPerRun pin.
//
//sdam:noalloc
func (m *mshrRing) add(t float64) {
	i := sort.SearchFloat64s(m.times[:m.n], t)
	m.times = append(m.times[:m.n], 0) // want "append may grow"
	copy(m.times[i+1:], m.times[i:])
	m.times[i] = t
	m.n++
}
