package apps

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func newEnv(t testing.TB) *workload.Env {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	return &workload.Env{AS: as, Heap: heap.New(as), Collector: trace.NewCollector(0)}
}

// all returns every kernel built with opts.
func all(opts Options) []workload.Workload {
	out := make([]workload.Workload, len(kernels))
	for i, k := range kernels {
		out[i] = k.mk(opts)
	}
	return out
}

func drain(t *testing.T, env *workload.Env, w workload.Workload, seed int64) int {
	t.Helper()
	n := 0
	for _, s := range w.Streams(seed) {
		for {
			ref, ok := s.Next()
			if !ok {
				break
			}
			if env.AS.FindVMA(ref.VA) == nil {
				t.Fatalf("%s: reference %#x outside allocations", w.Name(), uint64(ref.VA))
			}
			n++
		}
	}
	return n
}

func TestAllKernelsRunWithinBudget(t *testing.T) {
	opts := Options{MaxRefs: 20_000, Threads: 4}
	for _, w := range all(opts) {
		env := newEnv(t)
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		n := drain(t, env, w, 1)
		if n == 0 {
			t.Fatalf("%s produced no references", w.Name())
		}
		if n > 20_000 {
			t.Fatalf("%s exceeded budget: %d refs", w.Name(), n)
		}
	}
}

func TestKernelsAreDeterministic(t *testing.T) {
	opts := Options{MaxRefs: 5_000, Threads: 2}
	for _, k := range kernels {
		collect := func() []cpu.Ref {
			env := newEnv(t)
			w := k.mk(opts)
			if err := w.Setup(env); err != nil {
				t.Fatal(err)
			}
			var refs []cpu.Ref
			for _, s := range w.Streams(42) {
				for {
					ref, ok := s.Next()
					if !ok {
						break
					}
					refs = append(refs, ref)
				}
			}
			return refs
		}
		a, b := collect(), collect()
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic length %d vs %d", k.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ref %d differs: %+v vs %+v", k.name, i, a[i], b[i])
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	env := newEnv(t)
	w := NewBFS(Options{MaxRefs: 5_000})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	n1 := drain(t, env, w, 1)
	n2 := drain(t, env, w, 99)
	// Different roots/graphs will rarely produce identical counts, but
	// the strong check is on the addresses; count equality alone is not
	// a failure. Just ensure both produced work.
	if n1 == 0 || n2 == 0 {
		t.Fatal("seeded runs empty")
	}
}

func TestGenGraphWellFormed(t *testing.T) {
	g := GenGraph(1024, 8, 3)
	if g.N != 1024 || len(g.Offsets) != 1025 {
		t.Fatalf("bad shape: n=%d offsets=%d", g.N, len(g.Offsets))
	}
	if int(g.Offsets[g.N]) != len(g.Edges) {
		t.Fatalf("CSR end %d != edges %d", g.Offsets[g.N], len(g.Edges))
	}
	for u := 0; u < g.N; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			t.Fatalf("offsets not monotone at %d", u)
		}
	}
	for _, v := range g.Edges {
		if int(v) >= g.N {
			t.Fatalf("edge target %d out of range", v)
		}
	}
}

func TestGraphDegreeSkew(t *testing.T) {
	// The hot prefix must receive disproportionately many in-edges —
	// the RMAT-ish skew that makes gathers cache-unfriendly.
	g := GenGraph(4096, 16, 7)
	in := make([]int, g.N)
	for _, v := range g.Edges {
		in[v]++
	}
	hot := 0
	for v := 0; v < g.N/16; v++ {
		hot += in[v]
	}
	if frac := float64(hot) / float64(len(g.Edges)); frac < 0.3 {
		t.Fatalf("hot prefix in-degree share %.2f, want skewed (>0.3)", frac)
	}
}

func TestVariablesAreRegistered(t *testing.T) {
	env := newEnv(t)
	w := NewPageRank(Options{MaxRefs: 1_000})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Heap.Live()); got != 4 {
		t.Fatalf("pagerank allocated %d variables, want 4", got)
	}
}

func TestArrayClampsIndexes(t *testing.T) {
	a := &array{base: 0x1000, elem: 8, n: 4}
	if a.va(7) != 0x1000+3*8 {
		t.Fatalf("clamp failed: %#x", uint64(a.va(7)))
	}
	empty := &array{base: 0x2000}
	if empty.va(5) != 0x2000 {
		t.Fatal("empty array clamp failed")
	}
}

func TestLineElems(t *testing.T) {
	if lineElems(4) != 16 || lineElems(64) != 1 || lineElems(128) != 1 {
		t.Fatal("lineElems wrong")
	}
}

func TestMixedPatternsAcrossVariables(t *testing.T) {
	// The premise of per-variable mappings: within one kernel, different
	// variables show different BFRVs. Use the collector to verify for
	// hash join (streaming s_tuples vs random buckets).
	env := newEnv(t)
	w := NewHashJoin(Options{MaxRefs: 40_000, Threads: 1})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Streams(5) {
		for {
			ref, ok := s.Next()
			if !ok {
				break
			}
			line, err := env.AS.TranslateLine(ref.VA)
			if err != nil {
				t.Fatal(err)
			}
			env.Collector.Record(trace.Access{VA: ref.VA, PA: line})
		}
	}
	var stream, random *trace.Variable
	for _, v := range env.Collector.Variables() {
		switch v.Site {
		case "hashjoin/s_tuples":
			stream = v
		case "hashjoin/buckets":
			random = v
		}
	}
	if stream == nil || random == nil {
		t.Fatal("variables missing from collector")
	}
	sb, rb := stream.BFRV(), random.BFRV()
	// The streaming scan concentrates flips in the low bits and almost
	// never flips high bits; the random probe flips every bit at ≈0.5.
	// Bit 10 lies well inside both variables' spans: streaming flips it
	// rarely, random probing flips it about half the time.
	if sb[10] > 0.05 {
		t.Fatalf("stream bit-10 flip rate %.3f, want ≈0", sb[10])
	}
	if rb[10] < 0.3 {
		t.Fatalf("random bit-10 flip rate %.3f, want ≈0.5", rb[10])
	}
	if sb[0] <= sb[10] {
		t.Fatalf("stream flips not concentrated low: bit0 %.3f vs bit10 %.3f", sb[0], sb[10])
	}
}

func TestExtensionKernels(t *testing.T) {
	opts := Options{MaxRefs: 20_000, Threads: 4}
	for _, w := range []workload.Workload{NewTranspose(opts), NewStencil(opts)} {
		env := newEnv(t)
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		n := drain(t, env, w, 1)
		if n == 0 || n > 20_000 {
			t.Fatalf("%s refs = %d", w.Name(), n)
		}
	}
}

func TestTransposeReadsAreColumnStrided(t *testing.T) {
	env := newEnv(t)
	w := NewTranspose(Options{MaxRefs: 4_000, Threads: 1})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	s := w.Streams(1)[0]
	var reads, writes int
	var prevRead vm.VA
	strideHits := 0
	for {
		ref, ok := s.Next()
		if !ok {
			break
		}
		if ref.Write {
			writes++
			continue
		}
		if reads > 0 {
			if d := int64(ref.VA) - int64(prevRead); d == 1024*4 {
				strideHits++
			}
		}
		prevRead = ref.VA
		reads++
	}
	if writes == 0 {
		t.Fatal("transpose recorded no stores")
	}
	// Within a line group the reads advance by one full row (n·4 bytes).
	if float64(strideHits)/float64(reads) < 0.8 {
		t.Fatalf("only %d/%d reads at row stride", strideHits, reads)
	}
}
