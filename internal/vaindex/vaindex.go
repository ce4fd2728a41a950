// Package vaindex finds which of a fixed set of non-overlapping address
// ranges contains an address, in constant expected time. It is the
// per-reference lookup shared by the reference-tape recorder (which
// allocation slot a recorded VA fell in) and the profiling collector
// (which variable owns an external access, the attribution step of
// §6.2).
//
// The index keeps the ranges sorted by start plus a direct-mapped bucket
// table over [first start, last end): bucket b covers addresses
// lo + b<<shift up to the next bucket, and records the first range that
// ends after the bucket's first address. A lookup is a subtraction and
// a shift to pick the bucket, one load, and a forward probe past the
// ranges that end inside the bucket before the address. The table has
// at most bucketsPerRange entries per range, which keeps that probe to a
// few steps on real heap layouts while the table stays a few KB.
//
// For non-overlapping ranges the answer is exactly the binary search's
// over the same sorted ranges: the containing range if there is one,
// and -1 for an address below, between or above all of them.
package vaindex

import (
	"math/bits"
	"sort"
)

// Range is one half-open address range [Start, End) and the value a
// lookup inside it returns. End must not be below Start.
type Range struct {
	Start, End uint64
	Val        int32
}

// bucketsPerRange bounds the bucket table's size as a multiple of the
// range count.
const bucketsPerRange = 16

// Index is an immutable range lookup table. The zero Index holds no
// ranges and finds nothing.
type Index struct {
	lo, hi uint64 // first start, last end; every hit lies in [lo, hi)
	shift  uint
	starts []uint64 // sorted by start, empty ranges dropped
	ends   []uint64 // non-decreasing, since the ranges do not overlap
	vals   []int32
	first  []int32 // first[b] = first range ending after bucket b's first address
}

// New builds the index over ranges, which must not overlap one another.
// Empty ranges contain no address and are dropped. ranges itself is not
// modified or retained.
func New(ranges []Range) Index {
	rs := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if r.End > r.Start {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return Index{}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	x := Index{
		starts: make([]uint64, len(rs)),
		ends:   make([]uint64, len(rs)),
		vals:   make([]int32, len(rs)),
	}
	for i, r := range rs {
		x.starts[i], x.ends[i], x.vals[i] = r.Start, r.End, r.Val
	}
	x.lo, x.hi = rs[0].Start, rs[len(rs)-1].End
	// The smallest shift whose buckets cover [lo, hi) in at most
	// bucketsPerRange·n entries: (span-1)>>shift < n·bucketsPerRange.
	maxBuckets := uint64(len(rs)) * bucketsPerRange
	x.shift = uint(bits.Len64((x.hi - x.lo - 1) / maxBuckets))
	x.first = make([]int32, (x.hi-x.lo-1)>>x.shift+1)
	i := 0
	for b := range x.first {
		addr := x.lo + uint64(b)<<x.shift
		// addr < hi = ends[n-1], so the scan stops inside the slice.
		for x.ends[i] <= addr {
			i++
		}
		x.first[b] = int32(i)
	}
	return x
}

// Find returns the value of the range containing va, or -1 when no
// range does.
//
//sdam:noalloc
func (x *Index) Find(va uint64) int32 {
	if va < x.lo || va >= x.hi {
		return -1
	}
	// first[b] is at most the first range ending after va, because the
	// bucket's first address is at most va; since the ends are sorted,
	// stepping past ranges that end at or before va reaches it. va < hi
	// keeps the probe inside the slice.
	i := x.first[(va-x.lo)>>x.shift]
	for x.ends[i] <= va {
		i++
	}
	if x.starts[i] <= va {
		return x.vals[i]
	}
	return -1
}
