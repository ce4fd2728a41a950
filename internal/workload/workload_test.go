package workload

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/lfg"
	"repro/internal/trace"
	"repro/internal/vm"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	return &Env{
		AS:        as,
		Heap:      heap.New(as),
		Collector: trace.NewCollector(0),
	}
}

func TestStridePatternSequence(t *testing.T) {
	st := Stride{4}.NewState(64*geom.LineBytes, 0)
	for i := 0; i < 16; i++ {
		want := uint64(i*4) % 64 * geom.LineBytes
		if got := st.Next(); got != want {
			t.Fatalf("step %d: %d, want %d", i, got, want)
		}
	}
}

func TestStrideWrapStaysOnLattice(t *testing.T) {
	// A stride-s sweep revisits exactly the lines ≡ start (mod s): the
	// channel-collapsing behavior of Fig 3's motivating experiment.
	st := Stride{4}.NewState(8*geom.LineBytes, 0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		off := st.Next()
		if off/geom.LineBytes%4 != 0 {
			t.Fatalf("offset %d off the stride lattice", off)
		}
		seen[off] = true
	}
	if len(seen) != 2 {
		t.Fatalf("stride-4 sweep over 8 lines touched %d lines, want 2", len(seen))
	}
}

func TestStrideSeedAlignsToLattice(t *testing.T) {
	st := Stride{16}.NewState(1<<20, 12345)
	for i := 0; i < 32; i++ {
		off := st.Next()
		if off/geom.LineBytes%16 != 0 {
			t.Fatalf("seeded stride start off the lattice: %d", off)
		}
	}
}

func TestRandomPatternInRange(t *testing.T) {
	st := Random{}.NewState(16*geom.LineBytes, 3)
	for i := 0; i < 100; i++ {
		off := st.Next()
		if off >= 16*geom.LineBytes || off%geom.LineBytes != 0 {
			t.Fatalf("offset %d out of range/misaligned", off)
		}
	}
}

// FuzzRandomPatternMatchesMathRand checks Random against the generator
// it stands in for: every offset must be the one
// rand.New(rand.NewSource(seed ^ 0x9e3779b9)).Uint64() picks, through
// the shared block, across the private continuation's first two wraps,
// and again from a second state of the same seed, which shows the first
// state's continuation left the shared block untouched.
func FuzzRandomPatternMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 0x9e3779b9, -0x9e3779b9, 1 << 40, -1 << 63, 1<<63 - 1} {
		f.Add(seed, uint64(1<<63))
		f.Add(seed, uint64(1000*geom.LineBytes))
	}
	f.Add(int64(7), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, bytes uint64) {
		lines := bytes / geom.LineBytes
		if lines == 0 {
			lines = 1
		}
		const draws = 3*lfg.Len + 17
		for pass := 0; pass < 2; pass++ {
			st := Random{}.NewState(bytes, seed)
			r := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
			for i := 0; i < draws; i++ {
				if got, want := st.Next(), r.Uint64()%lines*geom.LineBytes; got != want {
					t.Fatalf("seed %d, %d lines, pass %d, draw %d: offset %#x, want %#x", seed, lines, pass, i, got, want)
				}
			}
		}
	})
}

// TestRandomStatesShareBlocksConcurrently draws past the shared block
// from several goroutines at once, each over the same few seeds, so the
// race detector sees every state's private continuation stay off the
// block the others are still reading.
func TestRandomStatesShareBlocksConcurrently(t *testing.T) {
	const bytes, draws = 1 << 30, 2*lfg.Len + 5
	want := make([][]uint64, 3)
	for seed := range want {
		r := rand.New(rand.NewSource(int64(seed) ^ 0x9e3779b9))
		for i := 0; i < draws; i++ {
			want[seed] = append(want[seed], r.Uint64()%(bytes/geom.LineBytes)*geom.LineBytes)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range want {
				st := Random{}.NewState(bytes, int64(seed))
				for i, w := range want[seed] {
					if got := st.Next(); got != w {
						t.Errorf("goroutine %d, seed %d, draw %d: offset %#x, want %#x", g, seed, i, got, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestChaseCoversLines(t *testing.T) {
	st := Chase{}.NewState(64*geom.LineBytes, 5)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		off := st.Next()
		if off >= 64*geom.LineBytes {
			t.Fatalf("offset %d out of range", off)
		}
		seen[off] = true
	}
	if len(seen) < 32 {
		t.Fatalf("chase visited only %d/64 lines", len(seen))
	}
}

func TestPatternStrings(t *testing.T) {
	if (Stride{8}).String() != "stride8" || (Random{}).String() != "random" || (Chase{}).String() != "chase" {
		t.Fatal("pattern names wrong")
	}
}

func TestProxySetupMatchesTable1Shape(t *testing.T) {
	env := newEnv(t)
	p, err := NewProxyByName("mcf", ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Setup(env); err != nil {
		t.Fatal(err)
	}
	// mcf: 3 variables, all major.
	live := env.Heap.Live()
	if len(live) != 3 {
		t.Fatalf("allocations = %d, want 3", len(live))
	}
	// The scaled mean size must match avg·scale within rounding.
	var total uint64
	for _, l := range live {
		total += l.Size
	}
	wantMean := 1215.0 * 0.125 * (1 << 20)
	gotMean := float64(total) / 3
	if gotMean < wantMean*0.95 || gotMean > wantMean*1.05 {
		t.Fatalf("mean major size %.0f, want ≈%.0f", gotMean, wantMean)
	}
}

func TestProxyMinorCap(t *testing.T) {
	env := newEnv(t)
	p, err := NewProxyByName("gcc", ProxyOptions{MaxMinorVars: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Setup(env); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Heap.Live()); got != 34+50 {
		t.Fatalf("allocations = %d, want 84", got)
	}
}

func TestProxyStreamsProduceBoundedRefs(t *testing.T) {
	env := newEnv(t)
	p, _ := NewProxyByName("sjeng", ProxyOptions{Refs: 4000, Threads: 4})
	if err := p.Setup(env); err != nil {
		t.Fatal(err)
	}
	streams := p.Streams(1)
	if len(streams) != 4 {
		t.Fatalf("streams = %d", len(streams))
	}
	var n int
	for _, s := range streams {
		for {
			ref, ok := s.Next()
			if !ok {
				break
			}
			if env.AS.FindVMA(ref.VA) == nil {
				t.Fatalf("reference %#x outside any allocation", uint64(ref.VA))
			}
			n++
		}
	}
	if n != 4000 {
		t.Fatalf("total refs = %d, want 4000", n)
	}
}

func TestProxyDeterministicPerSeed(t *testing.T) {
	build := func() []vm.VA {
		env := newEnv(t)
		p, _ := NewProxyByName("gobmk", ProxyOptions{Refs: 1000, Threads: 1})
		if err := p.Setup(env); err != nil {
			t.Fatal(err)
		}
		var vas []vm.VA
		s := p.Streams(7)[0]
		for {
			ref, ok := s.Next()
			if !ok {
				break
			}
			vas = append(vas, ref.VA)
		}
		return vas
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

func TestProxySeedChangesInput(t *testing.T) {
	env := newEnv(t)
	p, _ := NewProxyByName("hmmer", ProxyOptions{Refs: 1000, Threads: 1})
	if err := p.Setup(env); err != nil {
		t.Fatal(err)
	}
	collect := func(seed int64) []vm.VA {
		var vas []vm.VA
		s := p.Streams(seed)[0]
		for {
			ref, ok := s.Next()
			if !ok {
				break
			}
			vas = append(vas, ref.VA)
		}
		return vas
	}
	a, b := collect(1), collect(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestAllTable1ProxiesConstruct(t *testing.T) {
	for _, target := range Table1Targets {
		env := newEnv(t)
		p := NewProxy(target, ProxyOptions{Refs: 100, MaxMinorVars: 8})
		if err := p.Setup(env); err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		if p.Name() != target.Name {
			t.Fatalf("name mismatch for %s", target.Name)
		}
	}
}

func TestFindTarget(t *testing.T) {
	if _, ok := FindTarget("mcf"); !ok {
		t.Fatal("mcf missing")
	}
	if _, ok := FindTarget("nonesuch"); ok {
		t.Fatal("bogus app found")
	}
	if _, err := NewProxyByName("nonesuch", ProxyOptions{}); err == nil {
		t.Fatal("bogus proxy constructed")
	}
}

func TestStrideCopy(t *testing.T) {
	env := newEnv(t)
	sc := NewStrideCopy([]int{1, 16, 32, 4}, 500, 1<<20)
	if err := sc.Setup(env); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Heap.Live()); got != 4 {
		t.Fatalf("allocations = %d, want 4", got)
	}
	streams := sc.Streams(1)
	if len(streams) != 4 {
		t.Fatalf("streams = %d", len(streams))
	}
	// Thread 1's stream must advance by exactly 16 lines per reference
	// (modulo the wrap skew).
	var prev vm.VA
	first := true
	for {
		ref, ok := streams[1].Next()
		if !ok {
			break
		}
		if !first {
			d := int64(ref.VA) - int64(prev)
			if d != 16*geom.LineBytes && d >= 0 {
				t.Fatalf("unexpected stride delta %d", d)
			}
		}
		prev, first = ref.VA, false
	}
}

func TestEnvDefaultPolicyIsZero(t *testing.T) {
	env := newEnv(t)
	va, err := env.Alloc("x", 4096)
	if err != nil {
		t.Fatal(err)
	}
	vma := env.AS.FindVMA(va)
	if vma == nil || vma.MapID != 0 {
		t.Fatal("default policy did not allocate mapping 0")
	}
}
