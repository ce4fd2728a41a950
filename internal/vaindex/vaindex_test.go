package vaindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the lookup the index replaces: a binary search for the last
// range starting at or below va, which contains va if va is below its
// end.
type oracle struct {
	starts, ends []uint64
	vals         []int32
}

func newOracle(ranges []Range) oracle {
	rs := append([]Range(nil), ranges...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	var o oracle
	for _, r := range rs {
		o.starts = append(o.starts, r.Start)
		o.ends = append(o.ends, r.End)
		o.vals = append(o.vals, r.Val)
	}
	return o
}

func (o oracle) find(va uint64) int32 {
	i := sort.Search(len(o.starts), func(i int) bool { return o.starts[i] > va })
	if i > 0 && va < o.ends[i-1] {
		return o.vals[i-1]
	}
	return -1
}

// layout draws n non-overlapping, non-empty ranges from r, starting at
// base: gaps of 0 (adjacent ranges) up to maxGap bytes, sizes of 1 up
// to maxSize bytes, and every tenth range a large one so the span is
// dominated by a few ranges, as a heap's major variables dominate it.
// The ranges come back in shuffled order with their draw index as
// value; the layout stops early rather than wrap past the top of the
// address space.
func layout(r *rand.Rand, n int, base, maxGap, maxSize uint64) []Range {
	var out []Range
	at := base
	for i := 0; i < n; i++ {
		gap := uint64(0)
		if r.Intn(3) > 0 {
			gap = r.Uint64() % (maxGap + 1)
		}
		size := 1 + r.Uint64()%maxSize
		if i%10 == 9 {
			size *= 1000
		}
		if at > math.MaxUint64-gap || at+gap > math.MaxUint64-size {
			break
		}
		at += gap
		out = append(out, Range{Start: at, End: at + size, Val: int32(i)})
		at += size
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// probes lists addresses worth asking about: below, at and around every
// boundary, between ranges, above the last, the address-space extremes,
// and random addresses inside the span.
func probes(r *rand.Rand, ranges []Range) []uint64 {
	vas := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, rg := range ranges {
		vas = append(vas, rg.Start-1, rg.Start, rg.Start+1, rg.End-1, rg.End, rg.End+1, rg.Start+(rg.End-rg.Start)/2)
		lo, hi = min(lo, rg.Start), max(hi, rg.End)
	}
	for i := 0; i < 4*len(ranges) && hi > lo; i++ {
		vas = append(vas, lo+r.Uint64()%(hi-lo))
	}
	return vas
}

func checkAgainstOracle(t *testing.T, ranges []Range, vas []uint64) {
	t.Helper()
	x := New(ranges)
	o := newOracle(ranges)
	for _, va := range vas {
		if got, want := x.Find(va), o.find(va); got != want {
			t.Fatalf("%d ranges: Find(%#x) = %d, binary search says %d", len(ranges), va, got, want)
		}
	}
}

// FuzzRangeIndex checks Find against the binary search on random
// non-overlapping layouts: adjacent ranges, gaps, ranges of one byte and
// ranges a thousand times the typical size, and addresses below,
// between and above them.
func FuzzRangeIndex(f *testing.F) {
	f.Add(int64(1), uint16(1), uint64(0), uint64(0), uint64(1))
	f.Add(int64(2), uint16(300), uint64(1<<32), uint64(1<<20), uint64(64<<10))
	f.Add(int64(3), uint16(40), uint64(0x1000), uint64(0), uint64(4096))
	f.Add(int64(4), uint16(17), uint64(math.MaxUint64-1<<40), uint64(1<<30), uint64(1<<30))
	f.Add(int64(5), uint16(2), uint64(math.MaxUint64-3), uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, base, maxGap, maxSize uint64) {
		if maxSize == 0 {
			maxSize = 1
		}
		maxSize = min(maxSize, 1<<40)
		r := rand.New(rand.NewSource(seed))
		ranges := layout(r, int(n%1024), base, maxGap, maxSize)
		checkAgainstOracle(t, ranges, probes(r, ranges))
	})
}

// TestEmptyRangesFindNothing: an empty range contains no address, and
// dropping it leaves the other ranges' answers unchanged.
func TestEmptyRangesFindNothing(t *testing.T) {
	ranges := []Range{{Start: 0x1000, End: 0x1000, Val: 0}, {Start: 0x2000, End: 0x3000, Val: 1}, {Start: 0x5000, End: 0x5000, Val: 2}}
	checkAgainstOracle(t, ranges, []uint64{0xfff, 0x1000, 0x1fff, 0x2000, 0x2fff, 0x3000, 0x5000})
	var zero Index
	if got := zero.Find(0); got != -1 {
		t.Fatalf("zero Index found %d", got)
	}
}

// TestFindDoesNotAllocate pins Find's //sdam:noalloc contract.
func TestFindDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ranges := layout(r, 300, 1<<32, 1<<16, 64<<10)
	x := New(ranges)
	vas := probes(r, ranges)
	var sink int32
	if allocs := testing.AllocsPerRun(10, func() {
		for _, va := range vas {
			sink += x.Find(va)
		}
	}); allocs != 0 {
		t.Fatalf("Find allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}
