package vm

import (
	"testing"

	"repro/internal/amu"
	"repro/internal/chunk"
	"repro/internal/geom"
	"repro/internal/mapping"
)

// FuzzAddressSpaceOps runs random Mmap, Translate, Populate and Remap
// sequences, three input bytes per operation, against an oracle that
// keeps its own VMA list and a VPN-to-frame map. Every translation must
// agree with the oracle, land inside an area or fail, and never move a
// populated page; afterwards the table holds exactly the oracle's pages
// and both CheckInvariants pass. Areas are either small (up to 64
// pages, populated whole) or sparse (up to 4 GB, touched a page at a
// time), so the directory grows across gaps and leaves stay sparse.
func FuzzAddressSpaceOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 0, 0, 1, 0, 5, 2, 0, 0, 3, 0, 1})
	f.Add([]byte{0, 200, 3, 1, 0, 255, 1, 0, 128, 0, 7, 2, 1, 1, 0, 3, 0, 2, 1, 1, 9})
	f.Add([]byte{1, 4, 4, 0, 250, 0, 0, 1, 1, 1, 0, 200, 1, 1, 70, 2, 1, 0, 3, 1, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64] // 64 operations cannot exhaust 64 chunks
		}
		k := NewKernel(64)
		ids := []int{0}
		for _, stride := range []int{4, 64} {
			cfg, err := amu.ConfigOf(mapping.ForStride(stride, geom.Default()))
			if err != nil {
				t.Fatal(err)
			}
			id, err := k.AddAddrMap(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		as := k.NewAddressSpace()
		var areas []VMA
		oracle := make(map[uint64]chunk.Frame)
		inArea := func(va VA) int {
			for i, v := range areas {
				if v.Start <= va && va < v.End {
					return i
				}
			}
			return -1
		}
		// target picks a VA from two bytes: below every area when there
		// is none, otherwise in area a or up to two pages past it (its
		// guard page, then the next area's first page).
		target := func(a, b byte) VA {
			if len(areas) == 0 {
				return VA(uint64(a)<<geom.PageShift | uint64(b))
			}
			v := areas[int(a)%len(areas)]
			pages := v.Len() / geom.PageBytes
			return v.Start + VA((uint64(b)*(pages+2)/255)*geom.PageBytes+uint64(a))
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%4, ops[1], ops[2]
			switch op {
			case 0: // Mmap
				length := uint64(a%64+1)*geom.PageBytes - uint64(b)%geom.PageBytes
				if a >= 192 {
					length = (uint64(b) + 1) << 24
				}
				mapID := ids[int(b)%len(ids)]
				va, err := as.Mmap(length, mapID, "fuzz")
				if err != nil {
					t.Fatalf("Mmap(%d): %v", length, err)
				}
				areas = append(areas, VMA{Start: va, End: va + VA((length+geom.PageBytes-1)/geom.PageBytes*geom.PageBytes), MapID: mapID})
			case 1: // Translate
				va := target(a, b)
				pa, err := as.Translate(va)
				if inArea(va) < 0 {
					if err == nil {
						t.Fatalf("Translate(%#x) outside every area = %#x", uint64(va), pa)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Translate(%#x): %v", uint64(va), err)
				}
				if pa&(geom.PageBytes-1) != va.PageOffset() {
					t.Fatalf("Translate(%#x) = %#x lost the page offset", uint64(va), pa)
				}
				got := chunk.Frame(pa >> geom.PageShift)
				if want, ok := oracle[va.VPN()]; ok && got != want {
					t.Fatalf("page %#x moved from frame %d to %d", va.VPN(), want, got)
				}
				oracle[va.VPN()] = got
			case 2: // Populate
				if len(areas) == 0 {
					continue
				}
				v := areas[int(a)%len(areas)]
				if v.Len() > 64*geom.PageBytes {
					continue
				}
				if err := as.Populate(v.Start + VA(b)); err != nil {
					t.Fatalf("Populate(%#x): %v", uint64(v.Start), err)
				}
				for va := v.Start; va < v.End; va += geom.PageBytes {
					l, ok := as.TranslateLinePeek(va)
					if !ok {
						t.Fatalf("page %#x unpopulated after Populate", va.VPN())
					}
					got := chunk.Frame(uint64(l) >> (geom.PageShift - geom.LineShift))
					if want, ok := oracle[va.VPN()]; ok && got != want {
						t.Fatalf("Populate moved page %#x from frame %d to %d", va.VPN(), want, got)
					}
					oracle[va.VPN()] = got
				}
			case 3: // Remap
				if len(areas) == 0 {
					continue
				}
				i := int(a) % len(areas)
				v := &areas[i]
				newID := ids[int(b)%len(ids)]
				var pages []uint64
				for vpn := range oracle {
					if v.Start.VPN() <= vpn && vpn < v.End.VPN() {
						pages = append(pages, vpn)
					}
				}
				n, err := as.Remap(v.Start, newID)
				if err != nil {
					t.Fatalf("Remap(%#x, %d): %v", uint64(v.Start), newID, err)
				}
				if newID == v.MapID {
					pages = nil // a remap to the same mapping moves nothing
				}
				if n != len(pages) {
					t.Fatalf("Remap(%#x, %d) moved %d pages, oracle holds %d", uint64(v.Start), newID, n, len(pages))
				}
				v.MapID = newID
				for _, vpn := range pages {
					l, ok := as.TranslateLinePeek(VA(vpn << geom.PageShift))
					got := chunk.Frame(uint64(l) >> (geom.PageShift - geom.LineShift))
					if !ok || got == oracle[vpn] {
						t.Fatalf("Remap left page %#x on frame %d (populated %v)", vpn, got, ok)
					}
					oracle[vpn] = got
				}
			}
		}
		if got := k.Stats().MappedPages; got != len(oracle) {
			t.Fatalf("%d pages populated, oracle holds %d", got, len(oracle))
		}
		backs := make(map[chunk.Frame]uint64, len(oracle))
		for vpn, f := range oracle {
			l, ok := as.TranslateLinePeek(VA(vpn << geom.PageShift))
			if got := chunk.Frame(uint64(l) >> (geom.PageShift - geom.LineShift)); !ok || got != f {
				t.Fatalf("page %#x: table says frame %d (populated %v), oracle %d", vpn, got, ok, f)
			}
			if prev, dup := backs[f]; dup {
				t.Fatalf("frame %d backs pages %#x and %#x", f, prev, vpn)
			}
			backs[f] = vpn
			m, err := k.Phys.MappingOf(f)
			if want := areas[inArea(VA(vpn<<geom.PageShift))].MapID; err != nil || m != want {
				t.Fatalf("page %#x: frame mapping %d, %v; area mapping %d", vpn, m, err, want)
			}
		}
		if err := as.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := k.Phys.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
