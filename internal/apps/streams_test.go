package apps

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/lfg"
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

// streamDigest sets w up and returns digestStreams(w.Streams(seed)).
func streamDigest(t testing.TB, w workload.Workload, seed int64) uint64 {
	t.Helper()
	if err := w.Setup(newEnv(t)); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return digestStreams(w.Streams(seed))
}

// digestStreams drains every stream and returns an FNV-1a digest over
// each reference's (VA, Write), with each stream's length folded in
// after its references so stream boundaries count too.
func digestStreams(streams []cpu.Stream) uint64 {
	f := newFNV()
	for _, s := range streams {
		n := uint64(0)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			f.u64(uint64(r.VA))
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
// seeds 1–4. The first pins, which also hashed a per-array program
// counter, were recorded before the generators were first rewritten for
// speed; these re-record them over (VA, Write) from code that still
// matched those pins. A rewrite must keep every RNG draw and every
// computation an address depends on, in the same order, and emit the
// same references, so these never change unless a kernel's algorithm
// deliberately does. K-Means' digests do not vary with the seed because
// Lloyd's schedule does not depend on the input, and HNSW's r40k and
// default digests agree because its queries end before 40k references.
var pinnedDigests = map[string][4]uint64{
	"bfs/s4r200k":       {0x9411f506af44b67f, 0x19b491ef2b68b975, 0x30ebb35b6cd1fd31, 0x22d13f0dff7444ca},
	"bfs/r40k":          {0x3fd0d3726b7aec45, 0x324bef998b482126, 0x70949be14c7da470, 0xde51a56390944dc2},
	"bfs/default":       {0x88fbcc67f5f783ce, 0xeffba68310e22754, 0x32913d8b793264f8, 0x86ba6c1290401802},
	"pagerank/s4r200k":  {0x43cd68659f3be4b4, 0x4b5d2f1d630b222e, 0x68898495f44015de, 0x711fc896ad2ddabb},
	"pagerank/r40k":     {0xe49f1f03199cf64c, 0xe9a2a574b2786170, 0x4c3afb5491d0297b, 0x861acde26c190e5d},
	"pagerank/default":  {0x896d5a727e124b11, 0xa98249f1d00fb9ad, 0x03db51e2e08c438e, 0x1e3dc1783601a98b},
	"sssp/s4r200k":      {0x467f36531692d696, 0xb94cfd05faa19504, 0x8385721fa15734fe, 0x3ced43f663145606},
	"sssp/r40k":         {0xc76abbcedf6d0ac6, 0x39ba406eb21ad512, 0xb7961f5f32548efb, 0xb1ae89e073956514},
	"sssp/default":      {0xd14c1875489ce4c1, 0x0d21ba6b78524497, 0x56c1fd0f483ecdd3, 0x81642c47b4882dda},
	"hashjoin/s4r200k":  {0x6d5f8f7d41e66756, 0xcad4eb4da7c13e53, 0x5c0a117c41ac2061, 0x3c845f1c3496b413},
	"hashjoin/r40k":     {0xfb2602f85393181b, 0xcfcd2df90f56be1e, 0xc851b7b2c1ee5fd3, 0x487446414ad563e3},
	"hashjoin/default":  {0x26d0304c25cadbca, 0xe9b0f629f0336300, 0xe3c37d1bf7fc9c52, 0x5b7c18e3ac43f177},
	"mergejoin/s4r200k": {0x3cfef6e645507d85, 0x76d75e3636fd2391, 0x2093d775e4222944, 0xbc3312c07801b34b},
	"mergejoin/r40k":    {0xb1be6db60b1a11cf, 0xb354c2e3001dd314, 0x5bab4b54402a2457, 0xe4424dde1e438182},
	"mergejoin/default": {0x963d9f5cc8f886a2, 0x249980f99d1bf8f0, 0x2cdaf9495adab49a, 0x7edaef59c8d11821},
	"kmeans/s4r200k":    {0xde7cd25748cd02b3, 0xde7cd25748cd02b3, 0xde7cd25748cd02b3, 0xde7cd25748cd02b3},
	"kmeans/r40k":       {0x422de8bc6d8d9e0d, 0x422de8bc6d8d9e0d, 0x422de8bc6d8d9e0d, 0x422de8bc6d8d9e0d},
	"kmeans/default":    {0xc56e81d1d81a6923, 0xc56e81d1d81a6923, 0xc56e81d1d81a6923, 0xc56e81d1d81a6923},
	"hnsw/s4r200k":      {0x20b6179f5c9bea16, 0xbd5ef31f0d43475d, 0x3716e53e749447a9, 0x51e77fe870d0a7a9},
	"hnsw/r40k":         {0xd671d247ee69390f, 0xaf52c862f9516349, 0xe9bbb49cbd14c073, 0xe4bf52a93fad4235},
	"hnsw/default":      {0xd671d247ee69390f, 0xaf52c862f9516349, 0xe9bbb49cbd14c073, 0xe4bf52a93fad4235},
	"ivfpq/s4r200k":     {0x310326a854e4ad66, 0x4e388f2ce8314056, 0x0d3b1b9373d40e45, 0xe026c101da629908},
	"ivfpq/r40k":        {0x036541a8080ae3c7, 0xd47214a457fc9f30, 0x5ae2915f865e333c, 0x36c0067afa86e0e3},
	"ivfpq/default":     {0xc14db03943174544, 0x1ce3bd0dd09d3f95, 0x35dd98ff42af69d9, 0x9ab392dda67a6fcd},
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

// TestGenVectorsMatchesPinnedDigests pins genVectors directly. HNSW,
// its only caller, reads only the points its walks reach before the
// reference budget ends, so its stream digests cannot see a change in
// the rest. The digest covers every coordinate's bits plus the RNG's
// next draw, which proves the generator consumed exactly as many draws
// as before. The {1 << 16, 16} cases are the inputs K-Means once
// generated and are kept as extra coverage.
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
		r := lfg.New(c.seed)
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
	pts := genVectors(lfg.New(1), 64, 4)
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

// TestGraphKernelsShareOneGraphConcurrently runs two copies each of
// BFS, PageRank and SSSP at once on one memoized graph (SSSP at Scale 2
// has the 32k vertices BFS and PageRank have at Scale 1), so the race
// detector sees the shared graph read concurrently. The memo must build
// the graph once, and every copy must emit its pinned or agreed streams.
func TestGraphKernelsShareOneGraphConcurrently(t *testing.T) {
	const seed = 1
	mks := []struct {
		name string
		w    func() workload.Workload
		want uint64 // 0: copies must agree with each other
	}{
		{"bfs", func() workload.Workload { return NewBFS(Options{MaxRefs: 40_000}) }, pinnedDigests["bfs/r40k"][seed-1]},
		{"pagerank", func() workload.Workload { return NewPageRank(Options{MaxRefs: 40_000}) }, pinnedDigests["pagerank/r40k"][seed-1]},
		{"sssp", func() workload.Workload { return NewSSSP(Options{Scale: 2, MaxRefs: 40_000}) }, 0},
	}
	const copies = 2
	ws := make([]workload.Workload, len(mks)*copies)
	for i := range ws {
		ws[i] = mks[i/copies].w()
		if err := ws[i].Setup(newEnv(t)); err != nil {
			t.Fatal(err)
		}
	}
	// This test is not parallel, so no other Do is in flight.
	graphs.Reset()
	got := make([]uint64, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = digestStreams(w.Streams(seed))
		}()
	}
	wg.Wait()
	for i, k := range mks {
		first := got[i*copies]
		for c := 0; c < copies; c++ {
			d := got[i*copies+c]
			if k.want != 0 && d != k.want {
				t.Errorf("%s copy %d: digest %#016x, want pinned %#016x", k.name, c, d, k.want)
			}
			if d != first {
				t.Errorf("%s copy %d: digest %#016x, copy 0 gave %#016x", k.name, c, d, first)
			}
		}
	}
	if s := graphs.Stats(); s.Misses != 1 || s.Hits != int64(len(ws)-1) {
		t.Errorf("graph memo: %d builds and %d hits, want 1 and %d", s.Misses, s.Hits, len(ws)-1)
	}
}

// streamsSink keeps BenchmarkKernelStreams' results live.
var streamsSink []cpu.Stream

// BenchmarkKernelStreams times one cold Streams call — input
// construction, the algorithm run and reference recording — per kernel
// at the sweep-accel size, so a generation regression is attributable
// to one kernel rather than hidden in an average over all eight. The
// graph memo is emptied before every call; otherwise the graph kernels
// would time only their walks once the four seeds' graphs are built.
//
// A few iterations (-benchtime 8x) cannot resolve the kernels that run
// in under ~10 ms: on a 2-vCPU host, unchanged K-Means code read 0.86×
// of itself between two sets of runs. Compare per-kernel times with
//
//	go test -run '^$' -bench BenchmarkKernelStreams -count 10 -benchtime 1s ./internal/apps
//
// run once per tree, and treat differences inside the runs' spread as
// unresolved.
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
				graphs.Reset()
				streamsSink = w.Streams(int64(i%4 + 1))
			}
		})
	}
}
