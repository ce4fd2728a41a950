package chunk

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/amu"
	"repro/internal/cmt"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/rowguard"
)

func newTableWithMappings(t *testing.T, n int) *cmt.Table {
	t.Helper()
	tb := cmt.New(64)
	for i := 1; i <= n; i++ {
		cfg, err := amu.ConfigOf(mapping.ForStride(1<<uint(i%10), geom.Default()))
		if err != nil {
			t.Fatal(err)
		}
		if idx, err := tb.AllocMappingIndex(cfg); err != nil || idx != i {
			t.Fatalf("AllocMappingIndex = %d, %v; want slot %d", idx, err, i)
		}
	}
	return tb
}

func TestFrameChunkArithmetic(t *testing.T) {
	f := Frame(geom.PagesPerChunk + 3)
	if f.Chunk() != 1 {
		t.Fatalf("Chunk = %d", f.Chunk())
	}
	if f.PA() != uint64(geom.PagesPerChunk+3)<<geom.PageShift {
		t.Fatalf("PA = %#x", f.PA())
	}
}

func TestAllocFillsChunkBeforeGrowing(t *testing.T) {
	a := NewAllocator(4, nil)
	for i := 0; i < geom.PagesPerChunk; i++ {
		f, err := a.AllocFrame(1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Chunk() != 0 {
			t.Fatalf("frame %d allocated from chunk %d before chunk 0 full", i, f.Chunk())
		}
	}
	f, err := a.AllocFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Chunk() != 1 {
		t.Fatalf("overflow frame came from chunk %d, want 1", f.Chunk())
	}
	if a.GroupSize(1) != 2 || a.FreeChunks() != 2 {
		t.Fatalf("group size %d, free %d", a.GroupSize(1), a.FreeChunks())
	}
}

func TestGroupsAreDisjoint(t *testing.T) {
	tb := newTableWithMappings(t, 3)
	a := NewAllocator(64, tb)
	for round := 0; round < 50; round++ {
		for idx := 1; idx <= 3; idx++ {
			if _, err := a.AllocFrame(idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCMTBindingFollowsAllocation(t *testing.T) {
	tb := newTableWithMappings(t, 2)
	a := NewAllocator(64, tb)
	f, err := a.AllocFrame(2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := tb.MappingIndex(f.Chunk())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("CMT entry for chunk %d = %d, want 2", f.Chunk(), idx)
	}
	m, err := a.MappingOf(f)
	if err != nil || m != 2 {
		t.Fatalf("MappingOf = %d, %v", m, err)
	}
}

func TestFreeReturnsEmptyChunkToFreeList(t *testing.T) {
	tb := newTableWithMappings(t, 1)
	a := NewAllocator(8, tb)
	var frames []Frame
	for i := 0; i < geom.PagesPerChunk; i++ {
		f, err := a.AllocFrame(1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if a.FreeChunks() != 7 {
		t.Fatalf("free chunks = %d", a.FreeChunks())
	}
	for _, f := range frames {
		if err := a.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeChunks() != 8 || a.GroupSize(1) != 0 {
		t.Fatalf("after full free: free=%d group=%d", a.FreeChunks(), a.GroupSize(1))
	}
	// The CMT entry must revert to the default mapping.
	idx, _ := tb.MappingIndex(frames[0].Chunk())
	if idx != 0 {
		t.Fatalf("released chunk CMT entry = %d, want 0", idx)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeAndBadFrames(t *testing.T) {
	a := NewAllocator(4, nil)
	f, err := a.AllocFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeFrame(f); err == nil {
		t.Fatal("double free accepted")
	}
	if err := a.FreeFrame(Frame(1 << 40)); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
	if _, err := a.MappingOf(Frame(1 << 40)); err == nil {
		t.Fatal("MappingOf accepted out-of-range frame")
	}
	if _, err := a.AllocFrame(-1); err == nil {
		t.Fatal("negative mapping index accepted")
	}
}

func TestOutOfMemory(t *testing.T) {
	a := NewAllocator(2, nil)
	for i := 0; i < 2*geom.PagesPerChunk; i++ {
		if _, err := a.AllocFrame(1); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := a.AllocFrame(2); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

func TestFragmentationBoundedByGroups(t *testing.T) {
	// Paper §4: worst-case internal fragmentation is one partial chunk
	// per access pattern. Allocate one page in each of 8 groups.
	tb := newTableWithMappings(t, 8)
	a := NewAllocator(64, tb)
	for idx := 1; idx <= 8; idx++ {
		if _, err := a.AllocFrame(idx); err != nil {
			t.Fatal(err)
		}
	}
	frag := a.Fragmentation()
	if frag.PartialChunks != 8 {
		t.Fatalf("partial chunks = %d, want 8", frag.PartialChunks)
	}
	if frag.WastedPages != 8*(geom.PagesPerChunk-1) {
		t.Fatalf("wasted pages = %d", frag.WastedPages)
	}
}

func TestRandomAllocFreeKeepsInvariants(t *testing.T) {
	tb := newTableWithMappings(t, 4)
	a := NewAllocator(32, tb)
	r := rand.New(rand.NewSource(7))
	live := make(map[Frame]bool)
	for op := 0; op < 20000; op++ {
		if len(live) == 0 || r.Intn(3) != 0 {
			f, err := a.AllocFrame(1 + r.Intn(4))
			if err != nil {
				continue // may legitimately be OOM
			}
			if live[f] {
				t.Fatalf("frame %d handed out twice", f)
			}
			live[f] = true
		} else {
			var f Frame
			for f = range live {
				break
			}
			delete(live, f)
			if err := a.FreeFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFramesWithinOneChunkShareMapping(t *testing.T) {
	// DESIGN.md invariant 3, checked across interleaved allocations.
	tb := newTableWithMappings(t, 3)
	a := NewAllocator(16, tb)
	byChunk := make(map[int]int)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		idx := 1 + r.Intn(3)
		f, err := a.AllocFrame(idx)
		if err != nil {
			break
		}
		if prev, ok := byChunk[f.Chunk()]; ok && prev != idx {
			t.Fatalf("chunk %d served mappings %d and %d", f.Chunk(), prev, idx)
		}
		byChunk[f.Chunk()] = idx
	}
}

func TestSecureGroupSkipsGuardedPages(t *testing.T) {
	a := NewAllocator(4, nil)
	// Guard the first 32 and last 32 pages of every chunk (the identity
	// mapping's boundary rows).
	guard := func(p int) bool { return p < 32 || p >= geom.PagesPerChunk-32 }
	if err := a.SetGuard(1, guard); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < geom.PagesPerChunk-64; i++ {
		f, err := a.AllocFrame(1)
		if err != nil {
			t.Fatal(err)
		}
		page := int(uint64(f) % geom.PagesPerChunk)
		if guard(page) {
			t.Fatalf("guarded page %d allocated", page)
		}
		if f.Chunk() != 0 {
			t.Fatalf("spilled to chunk %d before filling usable pages", f.Chunk())
		}
		seen[page] = true
	}
	// The next allocation must move to a new chunk, not touch guards.
	f, err := a.AllocFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Chunk() != 1 {
		t.Fatalf("overflow went to chunk %d", f.Chunk())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetGuardValidation(t *testing.T) {
	a := NewAllocator(4, nil)
	if err := a.SetGuard(-1, nil); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := a.SetGuard(1, func(int) bool { return true }); err == nil {
		t.Fatal("all-guarded predicate accepted")
	}
	if _, err := a.AllocFrame(2); err != nil {
		t.Fatal(err)
	}
	if err := a.SetGuard(2, func(int) bool { return false }); err == nil {
		t.Fatal("guard after allocation accepted")
	}
	// Clearing a guard is allowed while the group is empty.
	if err := a.SetGuard(3, func(p int) bool { return p == 0 }); err != nil {
		t.Fatal(err)
	}
	if err := a.SetGuard(3, nil); err != nil {
		t.Fatal(err)
	}
}

// takePageRef is the straightforward scan takePage must agree with:
// every page in ascending order, skipping taken and guarded ones.
func takePageRef(bitmap *[geom.PagesPerChunk / 64]uint64, guard func(page int) bool) (int, bool) {
	for page := 0; page < geom.PagesPerChunk; page++ {
		if bitmap[page/64]>>(page%64)&1 != 0 {
			continue
		}
		if guard != nil && guard(page) {
			continue
		}
		bitmap[page/64] |= 1 << (page % 64)
		return page, true
	}
	return 0, false
}

// TestTakePageMatchesPerPageScan drains chunks with random occupancy
// under random guard sets and under rowguard's boundary-row guards:
// takePage must hand out the same page as the per-page scan every time,
// offer pages to the guard in ascending order, and leave the same
// bitmap behind.
func TestTakePageMatchesPerPageScan(t *testing.T) {
	guardOf := func(guarded []bool) func(int) bool {
		return func(p int) bool { return guarded[p] }
	}
	type namedGuard struct {
		name  string
		guard func(int) bool
	}
	guards := []namedGuard{{"none", nil}}
	for _, m := range []*mapping.Linear{mapping.Identity{}.Linear(), mapping.ForStride(1, geom.Default()), mapping.ForStride(64, geom.Default())} {
		guards = append(guards, namedGuard{"rowguard/" + m.Name(), guardOf(rowguard.GuardedPages(m, geom.Default()))})
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		guarded := make([]bool, geom.PagesPerChunk)
		for p := range guarded {
			guarded[p] = r.Intn(4) == 0 || (i == 3 && p < geom.PagesPerChunk-1)
		}
		guards = append(guards, namedGuard{fmt.Sprintf("random%d", i), guardOf(guarded)})
	}
	for _, g := range guards {
		name, guard := g.name, g.guard
		for trial := 0; trial < 20; trial++ {
			a := NewAllocator(1, nil)
			st := &a.chunks[0]
			var ref [geom.PagesPerChunk / 64]uint64
			density := r.Intn(8) // 0 = empty chunk, 7 = mostly full
			for p := 0; p < geom.PagesPerChunk; p++ {
				if r.Intn(8) < density {
					ref[p/64] |= 1 << (p % 64)
					st.usedPages++
				}
			}
			st.bitmap = ref
			for {
				var offered []int
				want, ok := takePageRef(&ref, guard)
				got, err := a.takePage(0, func(p int) bool {
					offered = append(offered, p)
					return guard != nil && guard(p)
				})
				if !ok {
					if err == nil {
						t.Fatalf("%s: takePage returned frame %d where the scan finds no page", name, got)
					}
					break
				}
				if err != nil || int(got) != want {
					t.Fatalf("%s trial %d: takePage = %d, %v; per-page scan takes %d", name, trial, got, err, want)
				}
				if !sort.IntsAreSorted(offered) {
					t.Fatalf("%s: pages offered to the guard out of order: %v", name, offered)
				}
				if st.bitmap != ref {
					t.Fatalf("%s: bitmaps diverge after taking page %d", name, want)
				}
			}
		}
	}
}
