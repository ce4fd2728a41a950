// Package fixture exercises sdamvet/noalloc. Lines with a trailing
// want comment must produce a noalloc diagnostic whose message contains
// substr; every other line must stay silent.
package fixture

import "errors"

type scratch struct {
	buf []int
}

type point struct{ x, y int }

func sinkAny(v any) { _ = v }

func sinkErr(err error) { _ = err }

var errFixture = errors.New("fixture")

// Every allocating construct the rule covers, in one annotated body.
//
//sdam:noalloc
func allocatesEverywhere(n int, s string, b []byte) {
	m := make([]int, n) // want "make allocates"
	p := new(point)     // want "new allocates"
	m = append(m, n)    // want "append may grow"
	f := func() int {   // want "function literal allocates"
		return n
	}
	q := &point{x: 1}   // want "address of a composite literal"
	lit := []int{1, 2}  // want "slice literal allocates"
	mp := map[int]int{} // want "map literal allocates"
	s2 := s + "x"       // want "string concatenation"
	s2 += s             // want "+= concatenation"
	bs := []byte(s)     // want "conversion copies and allocates"
	st := string(b)     // want "conversion copies and allocates"
	sinkAny(n)          // want "boxes it on the heap"
	var iv any
	iv = n // want "boxes it on the heap"
	_, _, _, _, _, _, _, _, _, _ = m, p, f, q, lit, mp, s2, bs, st, iv
}

// Returning a concrete value as an interface result boxes it.
//
//sdam:noalloc
func boxedReturn(v int) any {
	return v // want "boxes it on the heap"
}

// A grow guard still allocates: size the buffer where it is created,
// and keep only clearing in the annotated body.
//
//sdam:noalloc
func growGuard(sc *scratch, n int) {
	if cap(sc.buf) < n {
		sc.buf = make([]int, n) // want "make allocates"
	}
	sc.buf = sc.buf[:n]
	for i := range sc.buf {
		sc.buf[i] = i
	}
}

// Negative: interface-to-interface moves and untyped constants are
// free; so is slicing and plain arithmetic.
//
//sdam:noalloc
func cheapOps(err error, xs []int) int {
	sinkErr(err)
	sinkAny(42)
	sum := 0
	for _, x := range xs[1:] {
		sum += x
	}
	if err != nil {
		return sum + 1
	}
	return sum
}

// Negative: returning a pre-existing interface value does not box.
//
//sdam:noalloc
func passthroughErr(fail bool) error {
	if fail {
		return errFixture
	}
	return nil
}

// Negative: an unannotated function may allocate freely.
func unannotated(n int) []int {
	out := make([]int, n)
	return append(out, n)
}
