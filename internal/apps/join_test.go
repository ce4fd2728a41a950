package apps

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSortKeys sorts a copy of keys with sortKeys, using a scratch
// buffer extra elements longer than the input, and compares it with
// slices.Sort.
func checkSortKeys(t *testing.T, keys []uint64, extra int) {
	t.Helper()
	got := slices.Clone(keys)
	sortKeys(got, make([]uint64, len(keys)+extra))
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("sortKeys(%d keys) differs from slices.Sort", len(keys))
	}
}

func TestSortKeysMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	keys := func(n int, gen func() uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = gen()
		}
		return out
	}
	for _, c := range []struct {
		name  string
		keys  []uint64
		extra int
	}{
		{"empty", nil, 0},
		{"one", []uint64{42}, 0},
		{"all equal", keys(1000, func() uint64 { return 0xdeadbeef }), 0},
		{"heavy duplicates", keys(5000, func() uint64 { return uint64(r.Intn(8)) << 20 }), 0},
		{"bit 63", append(keys(5000, r.Uint64), 0, 1<<63, math.MaxUint64, 1<<63-1), 0},
		// One 11-bit digit: the single pass leaves the result in scratch.
		{"one pass", keys(5000, func() uint64 { return uint64(r.Intn(1 << 11)) }), 0},
		// Three digits, each varying, so none is skipped: again the
		// result lands in scratch and must be copied back.
		{"three passes", keys(5000, func() uint64 { return uint64(r.Int63n(1 << 33)) }), 0},
		{"MergeJoin keys", keys(1<<15, func() uint64 { return uint64(r.Intn(1 << 21)) }), 0},
		{"long scratch", keys(3000, func() uint64 { return uint64(r.Intn(1 << 33)) }), 5000},
		{"sorted", []uint64{1, 2, 3, 1 << 40, 1 << 50}, 0},
		{"reversed", []uint64{1 << 50, 1 << 40, 3, 2, 1}, 0},
	} {
		t.Run(c.name, func(t *testing.T) { checkSortKeys(t, c.keys, c.extra) })
	}
}

// TestSortKeysSubSlice sorts runs of a larger slice in place, as
// MergeJoin does, and checks each run is sorted while the keys around
// it are left alone.
func TestSortKeysSubSlice(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	all := make([]uint64, 1<<12)
	for i := range all {
		all[i] = uint64(r.Int63n(1 << 33))
	}
	orig := slices.Clone(all)
	scratch := make([]uint64, len(all))
	const runLen = 1 << 8
	lo, hi := 5*runLen, 6*runLen
	sortKeys(all[lo:hi], scratch)
	want := slices.Clone(orig[lo:hi])
	slices.Sort(want)
	if !slices.Equal(all[lo:hi], want) {
		t.Fatal("run not sorted")
	}
	if !slices.Equal(all[:lo], orig[:lo]) || !slices.Equal(all[hi:], orig[hi:]) {
		t.Fatal("sortKeys wrote outside its run")
	}
}

// FuzzSortKeys compares sortKeys with slices.Sort on arbitrary keys.
// data supplies the keys eight bytes at a time; bits masks them to
// their low bits%65 bits, so small widths exercise one to five digit
// passes (odd counts leave the result in scratch); extra lengthens the
// scratch buffer.
func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{}, uint8(64), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63), uint8(64), uint8(3))
	f.Add([]byte("sixteen bytes!!!and eight"), uint8(11), uint8(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef01234567"), uint8(33), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, bits, extra uint8) {
		keys := make([]uint64, len(data)/8)
		mask := uint64(math.MaxUint64)
		if b := bits % 65; b < 64 {
			mask = 1<<b - 1
		}
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:]) & mask
		}
		checkSortKeys(t, keys, int(extra))
	})
}
