package tape

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// setup runs w.Setup in a fresh address space, capturing the layout.
// padBytes pre-allocates a throwaway block first (bypassing the layout
// hook) so a second setup of the same workload lands at shifted bases.
func setup(t *testing.T, w workload.Workload, padBytes uint64) (Layout, *vm.AddressSpace) {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	h := heap.New(as)
	if padBytes > 0 {
		if _, err := h.Malloc(padBytes, 0, "tape_test.pad"); err != nil {
			t.Fatal(err)
		}
	}
	var lay Layout
	env := &workload.Env{AS: as, Heap: h, OnAlloc: lay.Note}
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	return lay, as
}

// drain consumes streams into flat per-stream reference slices.
func drain(ss []cpu.Stream) [][]cpu.Ref {
	out := make([][]cpu.Ref, len(ss))
	var buf [64]cpu.Ref
	for i, s := range ss {
		for n := s.NextBatch(buf[:]); n > 0; n = s.NextBatch(buf[:]) {
			out[i] = append(out[i], buf[:n]...)
		}
	}
	return out
}

func sameRefs(t *testing.T, got, want [][]cpu.Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d streams, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("stream %d: %d refs, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("stream %d ref %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func testWorkload() workload.Workload {
	return workload.NewStrideCopy([]int{1, 7, 32}, 500, 1<<20)
}

func TestReplayMatchesLiveSameLayout(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(42), lay)
	if !tp.Rebasable() {
		t.Fatal("stride-copy tape not rebasable")
	}

	// A fresh clone at the identical layout must see the identical
	// sequence, and replay must take the zero-copy path.
	fresh := w.Clone()
	flay, _ := setup(t, fresh, 0)
	ss, err := tp.Streams(&flay)
	if err != nil {
		t.Fatal(err)
	}
	if rs := ss[0].(*replayStream); rs.delta != nil {
		t.Fatal("identical layout did not take the zero-copy path")
	}
	sameRefs(t, drain(ss), drain(fresh.Streams(42)))
}

func TestReplayRebasesAcrossLayouts(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(7), lay)

	// Shift the second cell's heap with a pad allocation: every base
	// moves, so replay must rebase per slot — and still match a live
	// clone set up in that shifted space.
	fresh := w.Clone()
	flay, _ := setup(t, fresh, 3*geom.PageBytes)
	if lay.sameBases(&flay) {
		t.Fatal("pad allocation did not move the bases; test is vacuous")
	}
	ss, err := tp.Streams(&flay)
	if err != nil {
		t.Fatal(err)
	}
	sameRefs(t, drain(ss), drain(fresh.Streams(7)))
}

func TestReplayRejectsIncompatibleLayout(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(1), lay)
	short := Layout{Allocs: lay.Allocs[:len(lay.Allocs)-1]}
	if _, err := tp.Streams(&short); err == nil {
		t.Fatal("replay accepted a layout with a missing allocation")
	}
}

func TestStreamsResetRewinds(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(3), lay)
	ss, err := tp.Streams(&lay)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(ss)
	for _, s := range ss {
		s.(*replayStream).Reset()
	}
	sameRefs(t, drain(ss), first)
}

func TestSealPretranslatesLines(t *testing.T) {
	w := testWorkload()
	lay, as := setup(t, w, 0)
	tp := Record(w.Streams(9), lay)

	// Sealing an unpopulated space must refuse, never fault.
	if _, err := tp.Seal(&lay, as); err == nil {
		t.Fatal("Seal faulted pages into an unpopulated space")
	}

	// Populate by touching every recorded page live, then seal and
	// check each batch's lines against the live translation.
	for i := 0; i < tp.Refs(); i++ {
		if _, err := as.TranslateLine(vm.VA(tp.va[i])); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := tp.Seal(&lay, as)
	if err != nil {
		t.Fatal(err)
	}
	var refs [64]cpu.Ref
	var lines [64]geom.LineAddr
	for _, s := range sealed.Streams() {
		lb := s.(cpu.LineBatchStream)
		for {
			n := lb.NextBatchLines(refs[:], lines[:])
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				want, err := as.TranslateLine(refs[i].VA)
				if err != nil {
					t.Fatal(err)
				}
				if lines[i] != want {
					t.Fatalf("sealed line %v for %v, want %v", lines[i], refs[i].VA, want)
				}
			}
		}
	}
}

func TestCacheSingleflight(t *testing.T) {
	ResetCache()
	defer ResetCache()

	w := testWorkload()
	lay, _ := setup(t, w, 0)
	first := drain(StreamsFor(w, 5, &lay))

	fresh := w.Clone()
	flay, _ := setup(t, fresh, geom.PageBytes)
	second := drain(StreamsFor(fresh, 5, &flay))

	s := CacheStats()
	if s.Builds != 1 || s.Hits != 1 || s.Live != 0 {
		t.Fatalf("stats after two cells = %+v, want 1 build, 1 hit, 0 live", s)
	}
	if s.Bytes == 0 {
		t.Fatalf("implausible accounting: %+v", s)
	}

	// The shared recording must not leak the first cell's bases into
	// the second cell's (shifted) replay: compare against a live clone
	// set up at the same shifted layout.
	ref := w.Clone()
	rlay, _ := setup(t, ref, geom.PageBytes)
	if !flay.sameBases(&rlay) {
		t.Fatal("reference clone landed at different bases; test is vacuous")
	}
	sameRefs(t, second, drain(ref.Streams(5)))
	if len(first[0]) != len(second[0]) {
		t.Fatal("cells disagree on stream length")
	}
}

// TestCacheFallsBackOnIncompatibleLayout: a cell whose layout the
// shared tape cannot be replayed under runs its streams live, and the
// cache counts it as such.
func TestCacheFallsBackOnIncompatibleLayout(t *testing.T) {
	ResetCache()
	defer ResetCache()
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	drain(StreamsFor(w, 1, &lay))

	fresh := w.Clone()
	flay, _ := setup(t, fresh, 0)
	short := Layout{Allocs: flay.Allocs[:len(flay.Allocs)-1]}
	live := drain(StreamsFor(fresh, 1, &short))
	ref := w.Clone()
	setup(t, ref, 0)
	sameRefs(t, live, drain(ref.Streams(1)))
	if s := CacheStats(); s.Live != 1 || s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 build, 1 hit, 1 live", s)
	}
}

// TestConcurrentCellsShareOneTape drives many goroutines through the
// cache for one {key, seed} at once — the shape of a -jobs 8 sweep —
// and checks every cell sees the identical sequence. Run under -race
// (CI does), this is the proof that replay sharing is read-only.
func TestConcurrentCellsShareOneTape(t *testing.T) {
	ResetCache()
	defer ResetCache()

	w := testWorkload()
	lay, _ := setup(t, w, 0)
	want := drain(Record(w.Streams(11), lay).mustStreams(t, &lay))

	const cells = 8
	got := make([][][]cpu.Ref, cells)
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cw := w.Clone()
			as := vm.NewKernel(geom.Default().Chunks()).NewAddressSpace()
			var clay Layout
			env := &workload.Env{AS: as, Heap: heap.New(as), OnAlloc: clay.Note}
			if errs[c] = cw.Setup(env); errs[c] != nil {
				return
			}
			got[c] = drain(StreamsFor(cw, 11, &clay))
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("cell %d setup: %v", c, err)
		}
	}
	for c := 0; c < cells; c++ {
		sameRefs(t, got[c], want)
	}
	s := CacheStats()
	if s.Builds != 1 {
		t.Fatalf("%d builds for one key, want 1", s.Builds)
	}
	if s.Hits != cells-1 {
		t.Fatalf("%d hits for %d cells, want %d", s.Hits, cells, cells-1)
	}
}

// mustStreams is a test helper: Streams or fatal.
func (t *Tape) mustStreams(tt *testing.T, lay *Layout) []cpu.Stream {
	tt.Helper()
	ss, err := t.Streams(lay)
	if err != nil {
		tt.Fatal(err)
	}
	return ss
}

// TestRecordPresizesSliceStreams pins Record's allocation count on a
// 200k-reference tape of materialized streams, the shape every paper
// kernel hands it: the four columns are reserved once at their final
// size, so recording makes a fixed handful of allocations instead of
// growing each column by append tens of times.
func TestRecordPresizesSliceStreams(t *testing.T) {
	const threads, perThread = 4, 50_000
	base := vm.VA(1 << 30)
	lay := Layout{Allocs: []Alloc{{Site: "a", Base: base, Bytes: threads * perThread * geom.LineBytes}}}
	refs := make([][]cpu.Ref, threads)
	for th := range refs {
		refs[th] = make([]cpu.Ref, perThread)
		for i := range refs[th] {
			refs[th][i] = cpu.Ref{VA: base + vm.VA((i*threads+th)*geom.LineBytes), PC: 0x400000, Write: i%3 == 0}
		}
	}
	var tp *Tape
	allocs := testing.AllocsPerRun(5, func() {
		ss := make([]cpu.Stream, threads)
		for th := range ss {
			ss[th] = &cpu.SliceStream{Refs: refs[th]}
		}
		tp = Record(ss, lay)
	})
	if tp.Refs() != threads*perThread {
		t.Fatalf("recorded %d refs, want %d", tp.Refs(), threads*perThread)
	}
	// 18 at the time of writing, 5 of them the streams built above;
	// growing the columns by append instead makes about 120.
	if allocs > 24 {
		t.Fatalf("Record allocated %.0f times for a %d-ref tape, want ≤ 24 (columns presized)", allocs, tp.Refs())
	}
}

// unsized reports no references left, so Record reserves nothing and
// grows every column batch by batch instead.
type unsized struct{ cpu.Stream }

func (unsized) Remaining() int { return 0 }

func hideSizes(ss []cpu.Stream) []cpu.Stream {
	out := make([]cpu.Stream, len(ss))
	for i, s := range ss {
		out[i] = unsized{s}
	}
	return out
}

// presizeWorkloads are one proxy (mix streams) and one paper kernel
// (materialized slice streams), the two stream shapes Record presizes.
func presizeWorkloads(tb testing.TB) []workload.Workload {
	proxy, err := workload.NewProxyByName("gcc", workload.ProxyOptions{Refs: 40_000})
	if err != nil {
		tb.Fatal(err)
	}
	return []workload.Workload{proxy, apps.NewBFS(apps.Options{MaxRefs: 40_000})}
}

// TestRecordPresizeMatchesGrowth: presizing only changes how the
// columns are allocated, never what they hold. A tape recorded from
// streams that report their size must equal, column for column, one
// recorded from the same streams with the size hidden.
func TestRecordPresizeMatchesGrowth(t *testing.T) {
	for _, w := range presizeWorkloads(t) {
		lay, _ := setup(t, w, 0)
		sized := Record(w.Streams(5), lay)
		grown := Record(hideSizes(w.Streams(5)), lay)
		if cap(sized.va) != len(sized.va) || cap(sized.slot) != len(sized.slot) {
			t.Errorf("%s: presized columns hold %d/%d refs, want exact", w.Name(), len(sized.va), cap(sized.va))
		}
		if sized.Refs() != grown.Refs() || sized.Bytes() != grown.Bytes() || sized.rebasable != grown.rebasable {
			t.Fatalf("%s: presized Refs/Bytes/rebasable = %d/%d/%v, grown %d/%d/%v", w.Name(),
				sized.Refs(), sized.Bytes(), sized.rebasable, grown.Refs(), grown.Bytes(), grown.rebasable)
		}
		if !slices.Equal(sized.va, grown.va) || !slices.Equal(sized.pc, grown.pc) || !slices.Equal(sized.write, grown.write) ||
			!slices.Equal(sized.slot, grown.slot) || !slices.Equal(sized.starts, grown.starts) {
			t.Fatalf("%s: presized and grown tapes differ", w.Name())
		}
	}
}

// BenchmarkTapeRecord times recording one proxy's and one kernel's
// streams: stream generation, the slot lookup and the column writes.
func BenchmarkTapeRecord(b *testing.B) {
	for _, w := range presizeWorkloads(b) {
		b.Run(w.Name(), func(b *testing.B) {
			k := vm.NewKernel(geom.Default().Chunks())
			var lay Layout
			env := &workload.Env{AS: k.NewAddressSpace(), OnAlloc: lay.Note}
			env.Heap = heap.New(env.AS)
			if err := w.Setup(env); err != nil {
				b.Fatal(err)
			}
			refs := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refs += Record(w.Streams(5), lay).Refs()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		})
	}
}
