package apps

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// genGraphReference is GenGraph as first written: math/rand's
// interface-dispatched Intn for every draw, and one back-to-front
// scatter of every edge straight from the draw columns. GenGraph must
// build the same CSR graph.
func genGraphReference(n, edgeFactor int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := &Graph{N: n, Offsets: make([]uint32, n+1)}
	m := n * edgeFactor
	us, vs := make([]uint32, m), make([]uint32, m)
	hot := n / 16
	if hot == 0 {
		hot = 1
	}
	for i := range us {
		u := uint32(r.Intn(n))
		var v uint32
		if r.Intn(2) == 0 {
			v = uint32(r.Intn(hot))
		} else {
			v = uint32(r.Intn(n))
		}
		us[i], vs[i] = u, v
		g.Offsets[u]++
	}
	for u := 1; u < n; u++ {
		g.Offsets[u] += g.Offsets[u-1]
	}
	g.Offsets[n] = uint32(m)
	g.Edges = make([]uint32, m)
	for i := m - 1; i >= 0; i-- {
		u := us[i]
		g.Offsets[u]--
		g.Edges[g.Offsets[u]] = vs[i]
	}
	return g
}

// sameGraph reports the first difference between two graphs, or "".
func sameGraph(got, want *Graph) string {
	if got.N != want.N {
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	}
	if i := firstDiff(got.Offsets, want.Offsets); i >= 0 {
		return fmt.Sprintf("Offsets differ at %d (len %d, want %d)", i, len(got.Offsets), len(want.Offsets))
	}
	if i := firstDiff(got.Edges, want.Edges); i >= 0 {
		return fmt.Sprintf("Edges differ at %d (len %d, want %d)", i, len(got.Edges), len(want.Edges))
	}
	return ""
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff(a, b []uint32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestGenGraphMatchesReference compares GenGraph with the reference at
// sizes that take the masked draw loop (powers of two from 16 up) and
// the Intn loop (everything else, and n = 1 and 2, whose hot prefix is
// one vertex), with one bucket, a partial last bucket and 64 full ones.
func TestGenGraphMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 1000, 4096, 32768, 65536, 98304, 131072} {
		for seed := int64(1); seed <= 5; seed++ {
			if testing.Short() && n > 4096 && seed > 1 {
				continue
			}
			if msg := sameGraph(GenGraph(n, 16, seed), genGraphReference(n, 16, seed)); msg != "" {
				t.Errorf("GenGraph(%d, 16, %d): %s", n, seed, msg)
			}
		}
	}
}

// TestGenGraphPackingFallback forces the direct scatter genGraph takes
// when a packed edge would need more than 32 bits, and the other
// extreme, one source vertex per bucket. At n = 70000 (17-bit vertex
// IDs) a 16-bit bucket offset really needs 33 bits, so packing anyway
// would lose the top bit.
func TestGenGraphPackingFallback(t *testing.T) {
	for _, c := range []struct {
		n     int
		shift uint
	}{
		{70000, 32 - vertexBits(70000) + 1}, // one bit too many
		{70000, 32 - vertexBits(70000)},     // exactly 32 bits: still packed
		{1000, 0},
		{17, 0},
		{16, 31},
	} {
		want := genGraphReference(c.n, 5, 3)
		if msg := sameGraph(genGraph(c.n, 5, 3, c.shift), want); msg != "" {
			t.Errorf("genGraph(%d, 5, 3, shift %d): %s", c.n, c.shift, msg)
		}
	}
}

// FuzzGenGraphMatchesReference compares genGraph with the reference
// over small graphs, edge factors and seeds, at the default bucket
// shift and at a fuzzed one (which may force the direct scatter).
func FuzzGenGraphMatchesReference(f *testing.F) {
	for _, n := range []uint16{1, 2, 15, 16, 17, 64, 100, 1024, 4096, 5000} {
		f.Add(n, uint8(16), int64(1), uint8(0))
		f.Add(n, uint8(1), int64(-7), uint8(3))
	}
	f.Add(uint16(300), uint8(0), int64(0), uint8(40))
	f.Fuzz(func(t *testing.T, n16 uint16, ef8 uint8, seed int64, shift8 uint8) {
		n, ef := int(n16%8192)+1, int(ef8%24)
		want := genGraphReference(n, ef, seed)
		if msg := sameGraph(GenGraph(n, ef, seed), want); msg != "" {
			t.Fatalf("GenGraph(%d, %d, %d): %s", n, ef, seed, msg)
		}
		shift := uint(shift8 % 40)
		if msg := sameGraph(genGraph(n, ef, seed, shift), want); msg != "" {
			t.Fatalf("genGraph(%d, %d, %d, shift %d): %s", n, ef, seed, shift, msg)
		}
	})
}

// TestGenGraphAllocationBound bounds what GenGraph allocates at the
// sweep-accel size: three uint32 columns of the edge count (the two
// draw columns and the packed partition, whose first column becomes
// Edges) plus O(n) words: Offsets, and 64 KiB for its page rounding,
// the bucket ends, the source's private block and the Graph header. A
// fourth column would add 8 MiB.
func TestGenGraphAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 26 MB")
	}
	const n, ef = 131072, 16
	GenGraph(n, ef, 1) // the seed's shared block is built once per process
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := GenGraph(n, ef, 1)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(3*4*n*ef + 4*(n+1) + 64<<10)
	if got > limit {
		t.Errorf("GenGraph(%d, %d, 1) allocated %d bytes, limit %d", n, ef, got, limit)
	}
	runtime.KeepAlive(g)
}

var graphSink *Graph

// BenchmarkGenGraph times GenGraph against the reference at the
// sweep-accel size of BFS and PageRank (power-of-two n, masked draws)
// and at a size that takes the Intn draw loop.
func BenchmarkGenGraph(b *testing.B) {
	for _, n := range []int{131072, 98304} {
		for _, impl := range []struct {
			name string
			gen  func(n, edgeFactor int, seed int64) *Graph
		}{{"cur", GenGraph}, {"ref", genGraphReference}} {
			b.Run(fmt.Sprintf("%s/%d", impl.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graphSink = impl.gen(n, 16, int64(i%4+1))
				}
			})
		}
	}
}
