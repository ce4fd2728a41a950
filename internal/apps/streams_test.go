package apps

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// kernels lists every paper kernel's constructor by name.
var kernels = []struct {
	name string
	mk   func(Options) workload.Workload
}{
	{"bfs", func(o Options) workload.Workload { return NewBFS(o) }},
	{"pagerank", func(o Options) workload.Workload { return NewPageRank(o) }},
	{"sssp", func(o Options) workload.Workload { return NewSSSP(o) }},
	{"hashjoin", func(o Options) workload.Workload { return NewHashJoin(o) }},
	{"mergejoin", func(o Options) workload.Workload { return NewMergeJoin(o) }},
	{"kmeans", func(o Options) workload.Workload { return NewKMeansApp(o) }},
	{"hnsw", func(o Options) workload.Workload { return NewHNSW(o) }},
	{"ivfpq", func(o Options) workload.Workload { return NewIVFPQ(o) }},
}

// digestSizes are the option sets the pinned digests cover: the
// sweep-accel size, a small budget, and the defaults. Only the small
// budget runs under -short.
var digestSizes = []struct {
	name  string
	opts  Options
	short bool
}{
	{"s4r200k", Options{Scale: 4, MaxRefs: 200_000}, false},
	{"r40k", Options{MaxRefs: 40_000}, true},
	{"default", Options{}, false},
}

// fnvLE feeds little-endian integers to an FNV-1a hash.
type fnvLE struct {
	h   hash.Hash64
	buf []byte
}

func newFNV() *fnvLE { return &fnvLE{h: fnv.New64a()} }

func (f *fnvLE) u8(v uint8)   { f.write(append(f.buf[:0], v)) }
func (f *fnvLE) u32(v uint32) { f.write(binary.LittleEndian.AppendUint32(f.buf[:0], v)) }
func (f *fnvLE) u64(v uint64) { f.write(binary.LittleEndian.AppendUint64(f.buf[:0], v)) }
func (f *fnvLE) write(b []byte) {
	f.buf = b
	f.h.Write(b)
}

// streamDigest drains every stream of w.Streams(seed) and returns an
// FNV-1a digest over each reference's (VA, PC, Write), with each
// stream's length folded in after its references so stream boundaries
// count too.
func streamDigest(t testing.TB, w workload.Workload, seed int64) uint64 {
	t.Helper()
	if err := w.Setup(newEnv(t)); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	f := newFNV()
	for _, s := range w.Streams(seed) {
		n := uint64(0)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			f.u64(uint64(r.VA))
			f.u64(r.PC)
			if r.Write {
				f.u8(1)
			} else {
				f.u8(0)
			}
			n++
		}
		f.u64(n)
	}
	return f.h.Sum64()
}

// pinnedDigests holds streamDigest for every kernel × digestSizes ×
// seeds 1–4, recorded before the generators were rewritten for speed.
// The generators must keep making the same RNG draws in the same order
// and emitting the same references, so these never change unless a
// kernel's algorithm deliberately does. K-Means' digests do not vary
// with the seed because its references do not depend on its data, and
// HNSW's r40k and default digests agree because its queries end before
// 40k references.
var pinnedDigests = map[string][4]uint64{
	"bfs/s4r200k":       {0xf20d8b033b8ea29d, 0x54175ff1449b736f, 0xb5729814aef9d954, 0x0591dbe0bb22b785},
	"bfs/r40k":          {0x001566a3e641bf98, 0xdaa71d1280c381be, 0x2884c308076de5a4, 0xc415bff820444455},
	"bfs/default":       {0x57f585165ab75093, 0x376ab7a8147e466a, 0x02599708c66bf50a, 0x01da4f5b821f47e6},
	"pagerank/s4r200k":  {0x8bb8258dba8916d8, 0xae060a30cdfc76c3, 0x5b13f1ca15699d3b, 0x53acbab4092a0f62},
	"pagerank/r40k":     {0xda4f349aac0c1d89, 0x8cc393317564830c, 0x59a616f0fa69206f, 0x5a29750154685508},
	"pagerank/default":  {0x727460f21a77d60d, 0x561c0877fc6d777c, 0x29e62b752800b5a6, 0x8938c6b78d9b84ae},
	"sssp/s4r200k":      {0xbb041662dea7fa54, 0x36431c3658a40f31, 0x62ae36ade4f05eb1, 0x09c268b6cd9edfc6},
	"sssp/r40k":         {0x39f8ea841b8ec410, 0x68d8423190e19ecb, 0x07208ace3f62fbef, 0x3d304d2ee63c8743},
	"sssp/default":      {0x78428cccb24bc4ed, 0xf9a708c56e20f8d3, 0x87a2b3a1a40836f8, 0xed0e9397836fb631},
	"hashjoin/s4r200k":  {0x8ea6d2114cda2036, 0xf64e555a557d8d7f, 0xca985f506892050d, 0x05405bff9ebe1526},
	"hashjoin/r40k":     {0x2920c614c8335b45, 0xa00ebef95dd3896b, 0x0953e4f47a918b10, 0x41df9c99c4e8d74f},
	"hashjoin/default":  {0xd598fca1adc20152, 0x30ee6336a5318955, 0xe53d8a620cc093f3, 0xe50f961d18cc9340},
	"mergejoin/s4r200k": {0xc4433f41e626909f, 0x4ad838f918b1e6dd, 0xfe551c203dce18be, 0xe732b09673d91b15},
	"mergejoin/r40k":    {0x218c0a8db14626b4, 0xc84bc96df41d6cf3, 0x545be2f2dd77f864, 0x8b201d810bd41395},
	"mergejoin/default": {0x8bac83ee7661cff4, 0xf649f91fd59f1b46, 0x70e28efc01223516, 0xd05a2c6b79f637ad},
	"kmeans/s4r200k":    {0x43989c823dc9b413, 0x43989c823dc9b413, 0x43989c823dc9b413, 0x43989c823dc9b413},
	"kmeans/r40k":       {0xf1fdfb677963a68d, 0xf1fdfb677963a68d, 0xf1fdfb677963a68d, 0xf1fdfb677963a68d},
	"kmeans/default":    {0xc0ed4e0820352a03, 0xc0ed4e0820352a03, 0xc0ed4e0820352a03, 0xc0ed4e0820352a03},
	"hnsw/s4r200k":      {0x579e4826a98a0ad6, 0x59883257224d09bd, 0xaea763a58873d5a9, 0x39f0c0fd29c644c9},
	"hnsw/r40k":         {0x6447f44f63d7f5ef, 0x326b6b7da47e83c9, 0x68928885f0693313, 0xd03515b7109fea35},
	"hnsw/default":      {0x6447f44f63d7f5ef, 0x326b6b7da47e83c9, 0x68928885f0693313, 0xd03515b7109fea35},
	"ivfpq/s4r200k":     {0x36b667a3bde24086, 0xefcebb1cba3be556, 0x2056ae3bc48730a5, 0x65d8750fc8fb00e8},
	"ivfpq/r40k":        {0x0dff839a9734bce7, 0xf9827ef1d35c84d0, 0x789eddc63eafd6dc, 0x918801c970574863},
	"ivfpq/default":     {0x8895060cfd8b2a04, 0x6215b70f411d7615, 0x1e86e6de18f5b0b9, 0x002fde09d00d80ad},
}

func TestKernelStreamsMatchPinnedDigests(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			for _, sz := range digestSizes {
				if testing.Short() && !sz.short {
					continue
				}
				key := k.name + "/" + sz.name
				var got [4]uint64
				for i := range got {
					got[i] = streamDigest(t, k.mk(sz.opts), int64(i+1))
				}
				if want, ok := pinnedDigests[key]; !ok || got != want {
					t.Errorf("%q: {%#016x, %#016x, %#016x, %#016x},", key, got[0], got[1], got[2], got[3])
				}
			}
		})
	}
}

// TestGenVectorsMatchesPinnedDigests pins genVectors directly: the
// K-Means kernel's references do not depend on its point values (every
// point is gathered and every centroid scanned), so its stream digests
// cannot see a change in the generated data. The digest covers every
// coordinate's bits plus the RNG's next draw, which proves the
// generator consumed exactly as many draws as before.
func TestGenVectorsMatchesPinnedDigests(t *testing.T) {
	for _, c := range []struct {
		n, k int
		seed int64
		want uint64
	}{
		{1 << 16, 16, 1, 0xe1cea804f5eda5dd},
		{1 << 16, 16, 2, 0x2aa222cb41b28473},
		{1 << 15, 32, 1, 0x71d2527dfefeabc6},
		{1 << 15, 32, 2, 0x2b874a26b21988a4},
		{300, 5, 3, 0xfc9e042d0de9aa97},
	} {
		if testing.Short() && c.n > 1<<12 {
			continue
		}
		r := rand.New(rand.NewSource(c.seed))
		pts := genVectors(r, c.n, c.k)
		f := newFNV()
		for _, p := range pts {
			for _, x := range p {
				f.u64(uint64(math.Float32bits(x)))
			}
		}
		f.u64(uint64(r.Int63()))
		if got := f.h.Sum64(); got != c.want {
			t.Errorf("genVectors(n=%d, k=%d, seed %d) digest %#016x, want %#016x", c.n, c.k, c.seed, got, c.want)
		}
	}
}

// TestGenVectorsPointsAreCapacityClipped checks every point view ends
// its capacity at its own last coordinate: appending to one point must
// copy it, never write into the next point of the shared backing slice.
func TestGenVectorsPointsAreCapacityClipped(t *testing.T) {
	pts := genVectors(rand.New(rand.NewSource(1)), 64, 4)
	for i, p := range pts {
		if len(p) != dims || cap(p) != dims {
			t.Fatalf("point %d: len %d cap %d, want %d and %d", i, len(p), cap(p), dims, dims)
		}
	}
	next := pts[1][0]
	grown := append(pts[0], -1)
	grown[0] = -2
	if pts[1][0] != next || pts[0][0] == -2 {
		t.Fatal("appending to a point wrote into the shared backing slice")
	}
}

// TestGenGraphMatchesPinnedDigests pins GenGraph's whole CSR output:
// the graph kernels' streams stop at their reference budget, so they
// read only part of the graph they are given.
func TestGenGraphMatchesPinnedDigests(t *testing.T) {
	for _, c := range []struct {
		n, edgeFactor int
		seed          int64
		want          uint64
	}{
		{131072, 16, 1, 0xaa66b332ece73989},
		{131072, 16, 2, 0xde9c02a20ced8d4c},
		{1000, 3, 7, 0x8a716aa93a290544},
		{15, 4, 3, 0x9bb52f2ee3335e6d},
	} {
		if testing.Short() && c.n > 1<<12 {
			continue
		}
		g := GenGraph(c.n, c.edgeFactor, c.seed)
		f := newFNV()
		for _, col := range [][]uint32{g.Offsets, g.Edges} {
			for _, v := range col {
				f.u32(v)
			}
		}
		if got := f.h.Sum64(); got != c.want {
			t.Errorf("GenGraph(%d, %d, %d) digest %#016x, want %#016x", c.n, c.edgeFactor, c.seed, got, c.want)
		}
	}
}

// streamsSink keeps BenchmarkKernelStreams' results live.
var streamsSink []cpu.Stream

// BenchmarkKernelStreams times one Streams call — input construction,
// the algorithm run and reference recording — per kernel at the
// sweep-accel size, so a generation regression is attributable to one
// kernel rather than hidden in an average over all eight.
func BenchmarkKernelStreams(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			w := k.mk(Options{Scale: 4, MaxRefs: 200_000})
			if err := w.Setup(newEnv(b)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				streamsSink = w.Streams(int64(i%4 + 1))
			}
		})
	}
}
