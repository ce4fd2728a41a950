package vm

import (
	"runtime"
	"testing"

	"repro/internal/geom"
)

// TestTranslateFastPathZeroAllocs pins the per-reference translation
// cost at zero heap allocations: the hot path is a directory load and a
// leaf load, so any allocation that creeps in (map probe, boxing, fmt in
// the hit path) is a regression the engine pays millions of times per
// sweep.
func TestTranslateFastPathZeroAllocs(t *testing.T) {
	as, vas := benchSpace(t)
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := as.TranslateLine(vas[i&(len(vas)-1)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("TranslateLine fast path allocates %.1f objects per call, want 0", n)
	}
	i = 0
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := as.Translate(vas[i&(len(vas)-1)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Translate fast path allocates %.1f objects per call, want 0", n)
	}
}

// TestTranslateFaultPathBounded pins the fault path's allocations: only
// the first fault inside a leaf's 2 MB of VA allocates (the leaf, and
// amortized growth of the directory and the chunk group), so faulting
// fresh pages allocates at most one leaf per 512 of them, and the other
// 511 faults of a leaf allocate nothing.
//
// runtime.MemStats counts the whole process, and another goroutine (the
// test framework finishing the previous test, say) can allocate inside
// one leaf's window. So the test forgives one window that allocates and
// fails when two or more do: a fault path that allocates on every fault
// shows in all eight windows, and one that grows a slice by append on
// every fault reallocates in most of them.
func TestTranslateFaultPathBounded(t *testing.T) {
	k := NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	const nLeaves = 8
	start, err := as.Mmap(nLeaves*leafPages*geom.PageBytes, 0, "fault")
	if err != nil {
		t.Fatal(err)
	}
	if start.VPN()%leafPages != 0 {
		t.Fatalf("area starts at %#x, not on a leaf boundary", uint64(start))
	}
	var before, after runtime.MemStats
	var allocs [nLeaves]uint64
	allocating := 0
	for n := range allocs {
		base := start + VA(n*leafPages*geom.PageBytes)
		if _, err := as.Translate(base); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		for page := 1; page < leafPages; page++ {
			if _, err := as.Translate(base + VA(page*geom.PageBytes)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if allocs[n] = after.Mallocs - before.Mallocs; allocs[n] != 0 {
			allocating++
		}
		if got := as.leaves(); got != n+1 {
			t.Errorf("after faulting %d pages: %d leaves, want %d (one per %d pages)", (n+1)*leafPages, got, n+1, leafPages)
		}
	}
	if allocating > 1 {
		t.Errorf("faulting pages 1..%d of each leaf allocated %v objects: %d of %d leaves allocated, want at most 1 (a stray allocation)",
			leafPages-1, allocs, allocating, nLeaves)
	}
}

// TestMmapReservesNoTable pins that reserving VA costs no page table: a
// 1 TB area on a 16 MB machine, with its first page touched, allocates
// one directory entry and one 4 KB leaf, where a table sized by reserved
// VA would take 2 GB.
func TestMmapReservesNoTable(t *testing.T) {
	k := NewKernel(8)
	as := k.NewAddressSpace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	va, err := as.Mmap(1<<40, 0, "huge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(va); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("Mmap(1<<40) plus one touch allocated %d bytes, want under 64 KB", d)
	}
}
