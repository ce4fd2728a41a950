package tape

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/vm"
)

// randomLayout lays out n allocations of the given sizes in ascending,
// non-overlapping order from base, with random gaps.
func randomLayout(r *rand.Rand, base vm.VA, sizes []uint64) Layout {
	var lay Layout
	va := base
	for i, b := range sizes {
		va += vm.VA(r.Int63n(4 * geom.PageBytes))
		lay.Allocs = append(lay.Allocs, Alloc{Site: string(rune('a' + i%26)), Base: va, Bytes: b})
		va += vm.VA(b)
	}
	return lay
}

// drainBy drains ss with NextBatch buffers of size n, checking that
// Remaining counts down by exactly what each batch emits.
func drainBy(t *testing.T, ss []cpu.Stream, n int) [][]cpu.Ref {
	t.Helper()
	out := make([][]cpu.Ref, len(ss))
	buf := make([]cpu.Ref, n)
	for i, s := range ss {
		left := s.Remaining()
		for k := s.NextBatch(buf); k > 0; k = s.NextBatch(buf) {
			out[i] = append(out[i], buf[:k]...)
			if left -= k; s.Remaining() != left {
				t.Fatalf("stream %d: Remaining = %d after %d refs, want %d", i, s.Remaining(), len(out[i]), left)
			}
		}
		if left != 0 {
			t.Fatalf("stream %d ended with Remaining %d", i, left)
		}
	}
	return out
}

// FuzzTapeRecordReplay records random reference streams over random
// allocations, some references outside every allocation, and checks
// replay against the recorded input: verbatim under the recorded
// layout, shifted by each slot's base delta under a moved layout of
// the same shape (or refused when any reference was stray), with
// Remaining exact and the emission independent of the batch size.
func FuzzTapeRecordReplay(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint16(500), uint8(0), uint8(64))
	f.Add(int64(2), uint8(5), uint8(4), uint16(1000), uint8(20), uint8(1))
	f.Add(int64(3), uint8(0), uint8(1), uint16(10), uint8(255), uint8(7))
	f.Add(int64(4), uint8(1), uint8(0), uint16(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nAllocs, nStreams uint8, nRefs uint16, strayPer256, bufLen uint8) {
		r := rand.New(rand.NewSource(seed))
		sizes := make([]uint64, nAllocs%32)
		for i := range sizes {
			sizes[i] = 1 + uint64(r.Int63n(1<<16))
		}
		base := vm.VA(1 << 30)
		lay := randomLayout(r, base, sizes)

		// want[s][i] is the i-th reference of stream s; slot[s][i] the
		// allocation it lies in, -1 for a stray below every allocation.
		want := make([][]cpu.Ref, nStreams%8)
		slot := make([][]int, len(want))
		stray := false
		for s := range want {
			for i := 0; i < int(nRefs)%2048; i++ {
				ref := cpu.Ref{PC: uint64(r.Intn(16)), Write: r.Intn(3) == 0}
				sl := -1
				if len(sizes) > 0 && r.Intn(256) >= int(strayPer256) {
					sl = r.Intn(len(sizes))
					ref.VA = lay.Allocs[sl].Base + vm.VA(r.Int63n(int64(sizes[sl])))
				} else {
					ref.VA = vm.VA(r.Int63n(int64(base)))
					stray = true
				}
				want[s] = append(want[s], ref)
				slot[s] = append(slot[s], sl)
			}
		}
		streams := make([]cpu.Stream, len(want))
		for s := range streams {
			streams[s] = &cpu.SliceStream{Refs: want[s]}
		}
		tp := Record(streams, lay)
		if tp.NumStreams() != len(want) || tp.Rebasable() == stray {
			t.Fatalf("tape: %d streams, rebasable %v; want %d, %v", tp.NumStreams(), tp.Rebasable(), len(want), !stray)
		}

		replay := func(l *Layout, n int) [][]cpu.Ref {
			ss, err := tp.Streams(l)
			if err != nil {
				t.Fatal(err)
			}
			return drainBy(t, ss, n)
		}
		sameRefs(t, replay(&lay, 1+int(bufLen)), want)
		for _, n := range []int{1, 7, 64, 256} {
			sameRefs(t, replay(&lay, n), want)
		}

		if len(sizes) == 0 {
			return
		}
		last := lay.Allocs[len(sizes)-1]
		moved := randomLayout(r, last.Base+vm.VA(last.Bytes)+geom.PageBytes, sizes)
		if stray {
			if _, err := tp.Streams(&moved); err == nil {
				t.Fatal("a tape with stray references replayed under a moved layout")
			}
			return
		}
		shifted := make([][]cpu.Ref, len(want))
		for s := range want {
			for i, ref := range want[s] {
				ref.VA += moved.Allocs[slot[s][i]].Base - lay.Allocs[slot[s][i]].Base
				shifted[s] = append(shifted[s], ref)
			}
		}
		sameRefs(t, replay(&moved, 1+int(bufLen)), shifted)
		for _, n := range []int{1, 7, 64, 256} {
			sameRefs(t, replay(&moved, n), shifted)
		}
	})
}
