package heap

import (
	"fmt"
	"math"
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
	return New(k.NewAddressSpace()), k, id
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
		got := a.blocks[va].size
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
		nb := blk{uint64(va), uint64(va) + a.blocks[va].size}
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
	va1, _ := a.Malloc(64, id, "a")
	va2, _ := a.Malloc(64, id2, "b")
	va3, _ := a.Malloc(64, 0, "c")
	// Different mappings must come from different pages.
	if va1.VPN() == va2.VPN() || va1.VPN() == va3.VPN() || va2.VPN() == va3.VPN() {
		t.Fatal("allocations with different mappings share a page")
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
	if sz := a.blocks[va].size; sz < 3*HeapBytes {
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
			nb := blk{va, a.blocks[va].size, mid}
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

// TestMallocRejectsOverflowingSize pins that a size whose alignment or
// page round-up would overflow is an error, not a wrapped zero-byte
// block that a second such call would alias.
func TestMallocRejectsOverflowingSize(t *testing.T) {
	a, _, id := newAllocator(t)
	for _, size := range []uint64{
		math.MaxUint64,
		math.MaxUint64,                         // a second call must not alias the first
		math.MaxUint64 - Align + 2,             // the alignment round-up wraps
		math.MaxUint64 - geom.PageBytes + 2,    // the page round-up wraps
		math.MaxUint64 - geom.PageBytes + 1,    // rounds to the top page: no room
		math.MaxUint64 - (uint64(4) << 30) + 1, // larger than the address space left
	} {
		if va, err := a.Malloc(size, id, "huge"); err == nil {
			t.Fatalf("Malloc(%d) = %#x, want an error", size, uint64(va))
		}
	}
	if live := a.Live(); len(live) != 0 {
		t.Fatalf("rejected mallocs left %d live blocks: %+v", len(live), live)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Malloc(64, id, "small"); err != nil {
		t.Fatalf("Malloc after rejections: %v", err)
	}
}

// fuzzMaxSize bounds the sizes FuzzHeapOps requests outside the
// overflow range: it spans the dedicated-heap path (above HeapBytes)
// while keeping every accepted request's page table small.
const fuzzMaxSize = 2 * HeapBytes

// fuzzSize maps a fuzzed value to a request size. Values in the top
// 4 GiB are kept, since no address space has room for them (the mmap
// cursor starts at 4 GiB) and Malloc must reject them; the rest fold
// into 0..fuzzMaxSize, where 0 must be rejected and the others succeed.
func fuzzSize(v uint64) uint64 {
	if v > math.MaxUint64-(uint64(4)<<30) {
		return v
	}
	return v % (fuzzMaxSize + 1)
}

// FuzzHeapOps runs a fuzzed Malloc/Free sequence on one allocator and
// checks it against an oracle that knows only what each call returned:
// a request in 1..fuzzMaxSize succeeds and an oversized or zero one
// fails, every successful Malloc appears in Live() with its mapping,
// site and at least its size until it is freed, and no two live blocks
// overlap. Each op is three bytes: an opcode and a 16-bit operand.
// Opcodes 0 and 1 allocate the operand shifted left by the opcode's
// bits 4-6 from mapping 0 or from a stride mapping, 2 frees the live
// block the operand selects (or a never-allocated address when none is
// live), and 3 allocates fuzzSize(huge).
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{0, 0, 64, 1, 1, 0, 2, 0, 0, 0x71, 0xff, 0xff, 3, 0, 0}, uint64(math.MaxUint64))
	f.Add([]byte{3, 0, 0, 0, 0, 16, 3, 0, 0}, uint64(math.MaxUint64))
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 0, 5, 2, 0, 0}, uint64(HeapBytes+1))
	f.Fuzz(func(t *testing.T, ops []byte, huge uint64) {
		a, _, id := newAllocator(t)
		type block struct {
			size  uint64
			mapID int
			site  string
		}
		want := map[vm.VA]block{}
		var order []vm.VA // live blocks in allocation order
		for i := 0; i+3 <= len(ops); i += 3 {
			op, operand := ops[i], uint64(ops[i+1])<<8|uint64(ops[i+2])
			site := fmt.Sprintf("op%d", i/3)
			var size uint64
			mapID := 0
			switch op & 3 {
			case 0, 1:
				size = operand << (op >> 4 & 7)
				if op&3 == 1 {
					mapID = id
				}
			case 2:
				if len(order) == 0 {
					if err := a.Free(vm.VA(operand) << 4); err == nil {
						t.Fatalf("op %d: free with no live block accepted", i/3)
					}
					continue
				}
				j := int(operand % uint64(len(order)))
				va := order[j]
				if err := a.Free(va); err != nil {
					t.Fatalf("op %d: free %#x: %v", i/3, uint64(va), err)
				}
				if err := a.Free(va); err == nil {
					t.Fatalf("op %d: double free of %#x accepted", i/3, uint64(va))
				}
				delete(want, va)
				order = append(order[:j], order[j+1:]...)
				continue
			case 3:
				size = fuzzSize(huge)
			}
			va, err := a.Malloc(size, mapID, site)
			if ok := size >= 1 && size <= fuzzMaxSize; ok != (err == nil) {
				t.Fatalf("op %d: Malloc(%d) = %#x, %v", i/3, size, uint64(va), err)
			}
			if err != nil {
				continue
			}
			if _, dup := want[va]; dup {
				t.Fatalf("op %d: Malloc(%d) returned live address %#x", i/3, size, uint64(va))
			}
			want[va] = block{size, mapID, site}
			order = append(order, va)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		live := a.Live()
		if len(live) != len(want) {
			t.Fatalf("Live() has %d blocks, the oracle %d", len(live), len(want))
		}
		for i, l := range live {
			w, ok := want[l.VA]
			if !ok || l.Size < w.size || l.MapID != w.mapID || l.Site != w.site {
				t.Fatalf("Live() block %+v, oracle %+v (known %v)", l, w, ok)
			}
			if i > 0 && uint64(live[i-1].VA)+live[i-1].Size > uint64(l.VA) {
				t.Fatalf("live blocks overlap: %+v and %+v", live[i-1], l)
			}
		}
	})
}
