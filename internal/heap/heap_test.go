package heap

import (
	"math/rand"
	"testing"

	"repro/internal/amu"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/vm"
)

// strideConfig is the crossbar setting of the stride-s bit shuffle.
func strideConfig(t *testing.T, s int) amu.Config {
	t.Helper()
	cfg, err := amu.ConfigOf(mapping.ForStride(s, geom.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func newAllocator(t *testing.T) (*Allocator, *vm.Kernel, int) {
	t.Helper()
	k := vm.NewKernel(256)
	id, err := k.AddAddrMap(strideConfig(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	a := New(k.NewAddressSpace())
	a.RegisterMapID(id)
	return a, k, id
}

func TestMallocAlignment(t *testing.T) {
	a, _, id := newAllocator(t)
	for _, sz := range []uint64{1, 15, 16, 17, 100, 4096} {
		va, err := a.Malloc(sz, id, "t")
		if err != nil {
			t.Fatal(err)
		}
		if uint64(va)%Align != 0 {
			t.Fatalf("size %d: address %#x not %d-aligned", sz, uint64(va), Align)
		}
		got, err := a.SizeOf(va)
		if err != nil {
			t.Fatal(err)
		}
		want := (sz + Align - 1) &^ uint64(Align-1)
		if got != want {
			t.Fatalf("size %d: usable %d, want %d", sz, got, want)
		}
	}
}

func TestBlocksDoNotOverlap(t *testing.T) {
	a, _, id := newAllocator(t)
	type blk struct{ lo, hi uint64 }
	var blocks []blk
	for i := 0; i < 200; i++ {
		va, err := a.Malloc(uint64(16+i*8), id, "t")
		if err != nil {
			t.Fatal(err)
		}
		sz, _ := a.SizeOf(va)
		nb := blk{uint64(va), uint64(va) + sz}
		for _, b := range blocks {
			if nb.lo < b.hi && b.lo < nb.hi {
				t.Fatalf("blocks overlap: [%#x,%#x) and [%#x,%#x)", nb.lo, nb.hi, b.lo, b.hi)
			}
		}
		blocks = append(blocks, nb)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSeparateHeapsPerMapping(t *testing.T) {
	a, k, id := newAllocator(t)
	id2, err := k.AddAddrMap(strideConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	a.RegisterMapID(id2)
	va1, _ := a.Malloc(64, id, "a")
	va2, _ := a.Malloc(64, id2, "b")
	va3, _ := a.Malloc(64, 0, "c")
	// Different mappings must come from different pages.
	if va1.VPN() == va2.VPN() || va1.VPN() == va3.VPN() || va2.VPN() == va3.VPN() {
		t.Fatal("allocations with different mappings share a page")
	}
	ids := a.MapIDs()
	if len(ids) != 3 || ids[0] != 0 {
		t.Fatalf("MapIDs = %v", ids)
	}
}

func TestSameMappingReusesHeap(t *testing.T) {
	a, _, id := newAllocator(t)
	va1, _ := a.Malloc(64, id, "a")
	va2, _ := a.Malloc(64, id, "b")
	// Small blocks with the same mapping share the heap region.
	if diff := int64(va2) - int64(va1); diff < 0 || diff > HeapBytes {
		t.Fatalf("same-mapping blocks suspiciously far apart: %d", diff)
	}
}

func TestFreeAndReuse(t *testing.T) {
	a, _, id := newAllocator(t)
	va, err := a.Malloc(128, id, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(va); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(va); err == nil {
		t.Fatal("double free accepted")
	}
	va2, err := a.Malloc(128, id, "y")
	if err != nil {
		t.Fatal(err)
	}
	if va2 != va {
		t.Fatalf("freed space not reused first-fit: got %#x want %#x", uint64(va2), uint64(va))
	}
}

func TestFreeCoalescing(t *testing.T) {
	a, _, id := newAllocator(t)
	var vas []vm.VA
	for i := 0; i < 4; i++ {
		va, _ := a.Malloc(1024, id, "c")
		vas = append(vas, va)
	}
	for _, va := range vas {
		if err := a.Free(va); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing all four, a block spanning their combined size must
	// fit at the original location (extents coalesced).
	va, err := a.Malloc(4096, id, "big")
	if err != nil {
		t.Fatal(err)
	}
	if va != vas[0] {
		t.Fatalf("coalesced region not reused: got %#x want %#x", uint64(va), uint64(vas[0]))
	}
}

func TestLargeAllocationGetsOwnHeap(t *testing.T) {
	a, _, id := newAllocator(t)
	va, err := a.Malloc(3*HeapBytes, id, "huge")
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := a.SizeOf(va)
	if sz < 3*HeapBytes {
		t.Fatalf("huge block size %d", sz)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeRejected(t *testing.T) {
	a, _, _ := newAllocator(t)
	if _, err := a.Malloc(0, 0, ""); err == nil {
		t.Fatal("zero-size malloc accepted")
	}
}

func TestArenasAllocateIndependently(t *testing.T) {
	a, _, id := newAllocator(t)
	ar2 := a.NewArena()
	va1, err := a.MainArena().Malloc(64, id, "m")
	if err != nil {
		t.Fatal(err)
	}
	va2, err := ar2.Malloc(64, id, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Separate arenas use separate heaps, hence separate pages.
	if va1.VPN() == va2.VPN() {
		t.Fatal("two arenas share a heap page")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveInventory(t *testing.T) {
	a, _, id := newAllocator(t)
	va1, _ := a.Malloc(64, id, "siteA")
	_, _ = a.Malloc(64, 0, "siteB")
	live := a.Live()
	if len(live) != 2 {
		t.Fatalf("live count = %d", len(live))
	}
	found := false
	for _, l := range live {
		if l.VA == va1 {
			found = true
			if l.Site != "siteA" || l.MapID != id {
				t.Fatalf("allocation record wrong: %+v", l)
			}
		}
	}
	if !found {
		t.Fatal("allocation missing from Live()")
	}
	if a.LiveBytes() != 128 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
}

func TestRandomizedWorkloadKeepsInvariants(t *testing.T) {
	a, k, id := newAllocator(t)
	r := rand.New(rand.NewSource(11))
	var live []vm.VA
	for op := 0; op < 5000; op++ {
		if len(live) == 0 || r.Intn(3) > 0 {
			mapID := 0
			if r.Intn(2) == 0 {
				mapID = id
			}
			va, err := a.Malloc(uint64(1+r.Intn(8192)), mapID, "rand")
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, va)
		} else {
			i := r.Intn(len(live))
			if err := a.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = k
}

func TestMallocPropertyNoOverlapAcrossMappings(t *testing.T) {
	// Property test over random malloc/free interleavings across three
	// mappings: no two live blocks ever overlap, and every block's page
	// range stays within heaps of its own mapping.
	a, k, id := newAllocator(t)
	id2, err := k.AddAddrMap(strideConfig(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(77))
	type blk struct {
		va    vm.VA
		size  uint64
		mapID int
	}
	var live []blk
	mapIDs := []int{0, id, id2}
	for op := 0; op < 4000; op++ {
		if len(live) == 0 || r.Intn(5) > 0 {
			mid := mapIDs[r.Intn(3)]
			size := uint64(1 + r.Intn(16384))
			va, err := a.Malloc(size, mid, "prop")
			if err != nil {
				t.Fatal(err)
			}
			sz, _ := a.SizeOf(va)
			nb := blk{va, sz, mid}
			for _, b := range live {
				if uint64(nb.va) < uint64(b.va)+b.size && uint64(b.va) < uint64(nb.va)+nb.size {
					t.Fatalf("overlap: [%#x,+%d) mapping %d vs [%#x,+%d) mapping %d",
						uint64(nb.va), nb.size, nb.mapID, uint64(b.va), b.size, b.mapID)
				}
			}
			live = append(live, nb)
		} else {
			i := r.Intn(len(live))
			if err := a.Free(live[i].va); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	// Pages never mix mappings: check via the VMAs backing the blocks.
	for _, b := range live {
		vma := findVMA(t, a, b.va)
		if vma.MapID != b.mapID {
			t.Fatalf("block %#x mapping %d in VMA of mapping %d", uint64(b.va), b.mapID, vma.MapID)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func findVMA(t *testing.T, a *Allocator, va vm.VA) *vm.VMA {
	t.Helper()
	v := a.as.FindVMA(va)
	if v == nil {
		t.Fatalf("no VMA for block %#x", uint64(va))
	}
	return v
}
