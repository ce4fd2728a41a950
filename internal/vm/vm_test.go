package vm

import (
	"math"
	"testing"

	"repro/internal/amu"
	"repro/internal/chunk"
	"repro/internal/geom"
	"repro/internal/mapping"
)

func newKernelWithMap(t *testing.T, stride int) (*Kernel, int) {
	t.Helper()
	k := NewKernel(64)
	cfg, err := amu.ConfigOf(mapping.ForStride(stride, geom.Default()))
	if err != nil {
		t.Fatal(err)
	}
	id, err := k.AddAddrMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, id
}

func TestVAArithmetic(t *testing.T) {
	va := VA(0x12345)
	if va.VPN() != 0x12 {
		t.Fatalf("VPN = %#x", va.VPN())
	}
	if va.PageOffset() != 0x345 {
		t.Fatalf("PageOffset = %#x", va.PageOffset())
	}
}

func TestMmapAndDemandPaging(t *testing.T) {
	k, id := newKernelWithMap(t, 16)
	as := k.NewAddressSpace()
	va, err := as.Mmap(3*geom.PageBytes, id, "buf")
	if err != nil {
		t.Fatal(err)
	}
	if as.Faults() != 0 {
		t.Fatal("mmap populated pages eagerly")
	}
	pa1, err := as.Translate(va + 100)
	if err != nil {
		t.Fatal(err)
	}
	if as.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", as.Faults())
	}
	// Second touch of the same page: no new fault, same frame.
	pa2, err := as.Translate(va + 200)
	if err != nil {
		t.Fatal(err)
	}
	if as.Faults() != 1 {
		t.Fatal("second touch faulted again")
	}
	if pa1>>geom.PageShift != pa2>>geom.PageShift {
		t.Fatal("same page translated to different frames")
	}
	if pa1&(geom.PageBytes-1) != 100 {
		t.Fatalf("page offset not preserved: %#x", pa1)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultedFramesCarryVMAMapping(t *testing.T) {
	k, id := newKernelWithMap(t, 32)
	as := k.NewAddressSpace()
	va, _ := as.Mmap(16*geom.PageBytes, id, "data")
	if err := as.Populate(va); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 16*geom.PageBytes; off += geom.PageBytes {
		pa, err := as.Translate(va + VA(off))
		if err != nil {
			t.Fatal(err)
		}
		m, err := k.Phys.MappingOf(chunk.Frame(pa >> geom.PageShift))
		if err != nil {
			t.Fatal(err)
		}
		if m != id {
			t.Fatalf("page at +%#x backed by mapping %d, want %d", off, m, id)
		}
	}
}

func TestSegfaultOutsideVMAs(t *testing.T) {
	k := NewKernel(8)
	as := k.NewAddressSpace()
	if _, err := as.Translate(0x1000); err == nil {
		t.Fatal("translation of unmapped VA succeeded")
	}
	va, _ := as.Mmap(geom.PageBytes, 0, "x")
	// One byte past the end is in the guard gap.
	if _, err := as.Translate(va + geom.PageBytes); err == nil {
		t.Fatal("translation past VMA end succeeded")
	}
}

func TestMmapRejectsBadArgs(t *testing.T) {
	k := NewKernel(8)
	as := k.NewAddressSpace()
	if _, err := as.Mmap(0, 0, ""); err == nil {
		t.Fatal("zero-length mmap accepted")
	}
	if _, err := as.Mmap(geom.PageBytes, -1, ""); err == nil {
		t.Fatal("negative mapID accepted")
	}
	if _, err := as.Mmap(geom.PageBytes, 1<<20, ""); err == nil {
		t.Fatal("huge mapID accepted")
	}
}

// TestMmapRejectsOverflowingLength pins that a length whose page
// round-up, or whose end plus guard page, would wrap past the top of
// the address space is an error that leaves the space unchanged.
func TestMmapRejectsOverflowingLength(t *testing.T) {
	k := NewKernel(8)
	as := k.NewAddressSpace()
	start := as.cursor
	room := math.MaxUint64 - uint64(start)
	for _, length := range []uint64{
		math.MaxUint64,
		math.MaxUint64 - geom.PageBytes + 2, // the page round-up wraps
		room,                                // the area ends at the top
		room - 2*geom.PageBytes + 1,         // the guard page wraps the cursor
	} {
		if va, err := as.Mmap(length, 0, "huge"); err == nil {
			t.Fatalf("Mmap(%d) = %#x, want an overflow error", length, uint64(va))
		}
	}
	if as.cursor != start || len(as.vmas) != 0 {
		t.Fatalf("rejected mmaps changed the space: cursor %#x, %d VMAs", uint64(as.cursor), len(as.vmas))
	}
	if va, err := as.Mmap(geom.PageBytes, 0, "x"); err != nil || va != start {
		t.Fatalf("Mmap after rejections = %#x, %v; want %#x", uint64(va), err, uint64(start))
	}
}

func TestFindVMA(t *testing.T) {
	k := NewKernel(8)
	as := k.NewAddressSpace()
	va1, _ := as.Mmap(2*geom.PageBytes, 0, "a")
	va2, _ := as.Mmap(geom.PageBytes, 0, "b")
	if v := as.FindVMA(va1 + geom.PageBytes); v == nil || v.Label != "a" {
		t.Fatal("FindVMA missed area a")
	}
	if v := as.FindVMA(va2); v == nil || v.Label != "b" {
		t.Fatal("FindVMA missed area b")
	}
	if v := as.FindVMA(va1 - 1); v != nil {
		t.Fatal("FindVMA matched below first area")
	}
	if got := len(as.VMAs()); got != 2 {
		t.Fatalf("VMAs len = %d", got)
	}
}

func TestTranslateLine(t *testing.T) {
	k, id := newKernelWithMap(t, 1)
	as := k.NewAddressSpace()
	va, _ := as.Mmap(geom.PageBytes, id, "l")
	l, err := as.TranslateLine(va + 2*geom.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := as.Translate(va + 2*geom.LineBytes)
	if l != geom.PA(pa) {
		t.Fatal("TranslateLine disagrees with Translate")
	}
}

func TestTwoProcessesShareChunkGroups(t *testing.T) {
	// Chunks are a machine-global resource: two processes asking for the
	// same mapping draw from the same chunk group (§4: chunks are shared
	// by all processes).
	k, id := newKernelWithMap(t, 8)
	as1, as2 := k.NewAddressSpace(), k.NewAddressSpace()
	if as1.PID() == as2.PID() {
		t.Fatal("duplicate PIDs")
	}
	va1, _ := as1.Mmap(geom.PageBytes, id, "p1")
	va2, _ := as2.Mmap(geom.PageBytes, id, "p2")
	pa1, _ := as1.Translate(va1)
	pa2, _ := as2.Translate(va2)
	if pa1 == pa2 {
		t.Fatal("two processes given the same frame")
	}
	c1 := int(pa1 >> geom.ChunkShift)
	c2 := int(pa2 >> geom.ChunkShift)
	if c1 != c2 {
		t.Fatalf("pages with one mapping split across chunks %d and %d while space remained", c1, c2)
	}
	if k.Phys.GroupSize(id) != 1 {
		t.Fatalf("group size = %d, want 1", k.Phys.GroupSize(id))
	}
}

func TestKernelStats(t *testing.T) {
	k, id := newKernelWithMap(t, 2)
	as := k.NewAddressSpace()
	va, _ := as.Mmap(4*geom.PageBytes, id, "s")
	_ = as.Populate(va)
	s := k.Stats()
	if s.MappedPages != 4 || s.Faults != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LiveMappings != 2 { // default + ours
		t.Fatalf("live mappings = %d", s.LiveMappings)
	}
	if s.TotalChunks != 64 {
		t.Fatalf("total chunks = %d", s.TotalChunks)
	}
}

func TestOOMSurfacesThroughPageFault(t *testing.T) {
	k, id := newKernelWithMap(t, 1)
	as := k.NewAddressSpace()
	va, err := as.Mmap(uint64(2)*geom.ChunkBytes*64, id, "huge")
	if err != nil {
		t.Fatal(err)
	}
	err = as.Populate(va)
	if err == nil {
		t.Fatal("populating 128 chunks from 64 succeeded")
	}
}

func TestAddSecureAddrMapGuardsBoundaryRows(t *testing.T) {
	k := NewKernel(64)
	g := geom.Default()
	id, err := k.AddSecureAddrMap(amu.Identity(), g)
	if err != nil {
		t.Fatal(err)
	}
	as := k.NewAddressSpace()
	va, err := as.Mmap(geom.ChunkBytes, id, "secret")
	if err != nil {
		t.Fatal(err)
	}
	// Populate what fits: 12.5% of pages are guard rows, so a full-chunk
	// populate spills into a second chunk rather than using them.
	if err := as.Populate(va); err != nil {
		t.Fatal(err)
	}
	_, _, _, rowLowBits := g.Bits().OffsetFields()
	hi := 1<<rowLowBits - 1
	for off := uint64(0); off < geom.ChunkBytes; off += geom.PageBytes {
		pa, err := as.Translate(va + VA(off))
		if err != nil {
			t.Fatal(err)
		}
		ha := g.Decode(geom.PA(pa))
		rowLow := ha.Row & hi
		if rowLow == 0 || rowLow == hi {
			t.Fatalf("secure data landed in boundary row (row-low %d)", rowLow)
		}
	}
	if k.Phys.GroupSize(id) < 2 {
		t.Fatal("guarded chunk group did not grow to fit a full-chunk allocation")
	}
}

func TestRemapMigratesFrames(t *testing.T) {
	k, id := newKernelWithMap(t, 16)
	as := k.NewAddressSpace()
	va, _ := as.Mmap(8*geom.PageBytes, 0, "migrate-me")
	if err := as.Populate(va); err != nil {
		t.Fatal(err)
	}
	// All frames start in the default group.
	pa0, _ := as.Translate(va)
	if m, _ := k.Phys.MappingOf(chunk.Frame(pa0 >> geom.PageShift)); m != 0 {
		t.Fatalf("initial mapping %d", m)
	}
	n, err := as.Remap(va, id)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("migrated %d pages, want 8", n)
	}
	for off := uint64(0); off < 8*geom.PageBytes; off += geom.PageBytes {
		pa, err := as.Translate(va + VA(off))
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := k.Phys.MappingOf(chunk.Frame(pa >> geom.PageShift)); m != id {
			t.Fatalf("page +%#x still in mapping %d", off, m)
		}
	}
	// The VMA itself carries the new mapping, so future faults follow.
	if v := as.FindVMA(va); v.MapID != id {
		t.Fatalf("VMA mapping = %d", v.MapID)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemapValidation(t *testing.T) {
	k, id := newKernelWithMap(t, 4)
	as := k.NewAddressSpace()
	va, _ := as.Mmap(geom.PageBytes, 0, "x")
	if _, err := as.Remap(va+1, id); err == nil {
		t.Fatal("non-VMA-start accepted")
	}
	if _, err := as.Remap(va, -1); err == nil {
		t.Fatal("negative mapping accepted")
	}
	// Remap to the same mapping is a no-op.
	if n, err := as.Remap(va, 0); err != nil || n != 0 {
		t.Fatalf("no-op remap: %d, %v", n, err)
	}
	// Unpopulated pages migrate nothing but the VMA still flips.
	if n, err := as.Remap(va, id); err != nil || n != 0 {
		t.Fatalf("unpopulated remap: %d, %v", n, err)
	}
	if as.FindVMA(va).MapID != id {
		t.Fatal("VMA mapping unchanged")
	}
}
