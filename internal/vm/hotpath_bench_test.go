package vm

import (
	"testing"

	"repro/internal/geom"
)

// benchSpace returns a populated 64 MB address space and a line-granular
// VA schedule that touches every page of the region.
func benchSpace(tb testing.TB) (*AddressSpace, []VA) {
	tb.Helper()
	k := NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	const size = 64 << 20
	start, err := as.Mmap(size, 0, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	if err := as.Populate(start); err != nil {
		tb.Fatal(err)
	}
	vas := make([]VA, 8192)
	for i := range vas {
		// Large odd stride: jumps pages every reference, defeating any
		// single-entry translation reuse without leaving the region.
		vas[i] = start + VA(uint64(i)*geom.PageBytes*37%size)
	}
	return as, vas
}

// BenchmarkHotPathTranslateLine measures the translation fast path —
// the VPN lookup every simulated reference pays. ns/op here is ns/ref
// for the vm layer alone; -benchmem pins its allocation behavior.
func BenchmarkHotPathTranslateLine(b *testing.B) {
	as, vas := benchSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.TranslateLine(vas[i&(len(vas)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathTranslate measures the byte-address translation fast
// path used by Machine.Touch and the fault-in slow path's callers.
func BenchmarkHotPathTranslate(b *testing.B) {
	as, vas := benchSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Translate(vas[i&(len(vas)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathAddressSpaceCell measures the vm cost of one sweep
// cell outside the reference stream: boot a kernel over the default
// geometry, mmap a proxy-like layout (eight major variables of 2–16 MB
// and eight 4 MB heaps of minor variables), fault every page in, and
// run both integrity checks the cell runs when it ends. ns/op and B/op
// are per cell, the kernel's boot-time chunk and CMT state included.
func BenchmarkHotPathAddressSpaceCell(b *testing.B) {
	var lengths []uint64
	for i := 1; i <= 8; i++ {
		lengths = append(lengths, uint64(i)<<21)
	}
	for i := 0; i < 8; i++ {
		lengths = append(lengths, 4<<20)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel(geom.Default().Chunks())
		as := k.NewAddressSpace()
		for _, n := range lengths {
			va, err := as.Mmap(n, 0, "cell")
			if err != nil {
				b.Fatal(err)
			}
			if err := as.Populate(va); err != nil {
				b.Fatal(err)
			}
		}
		if err := as.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
		if err := k.Phys.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
