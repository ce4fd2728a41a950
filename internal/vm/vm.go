// Package vm models the kernel virtual-memory machinery SDAM modifies
// (paper §6.1): per-process address spaces made of VMAs that carry an
// address-mapping ID, page tables filled on demand by a page-fault
// handler that allocates frames from the mapping's chunk group.
//
// VA→PA translation is deliberately left untouched by SDAM (correctness
// argument in §4); the only change is *which* frame backs a page, never
// how translation works.
package vm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/amu"
	"repro/internal/chunk"
	"repro/internal/cmt"
	"repro/internal/geom"
	"repro/internal/rowguard"
)

// VA is a virtual byte address.
type VA uint64

// VPN returns the virtual page number.
func (v VA) VPN() uint64 { return uint64(v) >> geom.PageShift }

// PageOffset returns the offset within the page.
func (v VA) PageOffset() uint64 { return uint64(v) & (geom.PageBytes - 1) }

// Kernel owns the machine-wide memory-management state: the physical
// chunk allocator and the hardware CMT it programs.
type Kernel struct {
	Table  *cmt.Table
	Phys   *chunk.Allocator
	nextID int
	spaces []*AddressSpace
}

// NewKernel boots a kernel over nChunks of physical memory. The CMT is
// created alongside, with the default mapping pre-installed.
func NewKernel(nChunks int) *Kernel {
	table := cmt.New(nChunks)
	return &Kernel{
		Table: table,
		Phys:  chunk.NewAllocator(nChunks, table),
	}
}

// AddAddrMap installs a new address mapping into the hardware and
// returns its ID — the kernel half of glibc's add_addr_map() (§6.1).
func (k *Kernel) AddAddrMap(cfg amu.Config) (int, error) {
	return k.Table.AllocMappingIndex(cfg)
}

// AddSecureAddrMap installs an address mapping whose chunk group is
// row-hammer isolated: the allocator keeps the group's chunk-boundary
// rows empty (guard rows, paper §4), so data under this mapping cannot
// be disturbed from — nor disturb — other chunks. The extra capacity
// cost is the guarded-page fraction of each chunk.
func (k *Kernel) AddSecureAddrMap(cfg amu.Config, g geom.Geometry) (int, error) {
	m, err := cfg.Linear("secure")
	if err != nil {
		return 0, err
	}
	id, err := k.Table.AllocMappingIndex(cfg)
	if err != nil {
		return 0, err
	}
	guarded := rowguard.GuardedPages(m, g)
	if err := k.Phys.SetGuard(id, func(p int) bool { return guarded[p] }); err != nil {
		return 0, err
	}
	return id, nil
}

// NewAddressSpace creates a process address space. The user portion
// starts at 4 GB to keep VA 0 unmapped (null deref trap, as usual).
func (k *Kernel) NewAddressSpace() *AddressSpace {
	k.nextID++
	as := &AddressSpace{
		kernel: k,
		pid:    k.nextID,
		cursor: VA(4) << 30,
	}
	k.spaces = append(k.spaces, as)
	return as
}

// Stats summarizes kernel memory state.
func (k *Kernel) Stats() KernelStats {
	var s KernelStats
	s.FreeChunks = k.Phys.FreeChunks()
	s.TotalChunks = k.Phys.Chunks()
	s.LiveMappings = k.Table.LiveMappings()
	for _, as := range k.spaces {
		s.MappedPages += as.mapped
		s.Faults += as.faults
	}
	return s
}

// KernelStats is the report form of kernel state.
type KernelStats struct {
	TotalChunks, FreeChunks int
	LiveMappings            int
	MappedPages             int
	Faults                  uint64
}

// VMA is one virtual memory area: a contiguous VA range bound to an
// address-mapping ID — the vm_area_struct extension of §6.1.
type VMA struct {
	Start, End VA // [Start, End)
	MapID      int
	Label      string // allocation-site label, used by the profiler
}

// Len returns the VMA length in bytes.
func (v VMA) Len() uint64 { return uint64(v.End - v.Start) }

// Page-table geometry: a leaf maps one chunk-sized (2 MB) stretch of VA,
// leafPages pages.
const (
	leafShift = geom.ChunkShift - geom.PageShift
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

// leaf is one second-level page-table node: frame+1 per page, 0 when the
// page is not populated.
type leaf [leafPages]uint64

// userTop is the top of the user address space, x86-64 Linux's 2^47
// bytes: no VMA ends above it.
const userTop VA = 1 << 47

// AddressSpace is one process's virtual memory.
//
// The page table has two levels, like a radix table with only its last
// two levels kept: a directory of leaves indexed by VPN >> leafShift,
// each leaf covering 2 MB of VA. Mmap only records the VMA; the fault
// handler allocates a leaf on the first fault inside its 2 MB and grows
// the directory to reach it, so the table costs what a process touches,
// not what it reserves. A hit is a directory load and a leaf load, with
// no hashing and no allocation; the unsigned subtraction routes leaf
// numbers below dirBase out of range (they wrap to huge indexes) and
// into the slow path.
type AddressSpace struct {
	kernel  *Kernel
	pid     int
	cursor  VA
	vmas    []VMA   // sorted by Start
	dirBase uint64  // leaf number (VPN >> leafShift) of dir[0]
	dir     []*leaf // nil until a fault lands in the leaf's 2 MB
	mapped  int     // populated page-table entries
	faults  uint64
}

// PID returns the process ID.
func (as *AddressSpace) PID() int { return as.pid }

// Mmap reserves length bytes of virtual space bound to mapID, rounding
// up to whole pages. Pages are populated on first touch (demand paging),
// exactly as the modified mmap() in the paper. The label names the
// allocation site for the profiler. An area that would end above the
// 2^47-byte user address-space top is an error.
func (as *AddressSpace) Mmap(length uint64, mapID int, label string) (VA, error) {
	if length == 0 {
		return 0, fmt.Errorf("vm: zero-length mmap")
	}
	if mapID < 0 || mapID >= cmt.MaxMappings {
		return 0, fmt.Errorf("vm: mapping ID %d out of range", mapID)
	}
	start := as.cursor
	// start and userTop are page-aligned, so a length that fits below
	// userTop still fits once rounded up to whole pages, and neither the
	// round-up nor the guard page can wrap.
	if start >= userTop || length > uint64(userTop-start) {
		return 0, fmt.Errorf("vm: mmap of %d bytes at %#x would end above the user address-space top %#x", length, uint64(start), uint64(userTop))
	}
	end := start + VA((length+geom.PageBytes-1)&^(geom.PageBytes-1))
	as.cursor = end + geom.PageBytes // guard page between areas
	as.vmas = append(as.vmas, VMA{Start: start, End: end, MapID: mapID, Label: label})
	return start, nil
}

// entry returns vpn's page-table entry: frame+1, or 0 when the page is
// not populated. It is small enough to inline into the translate paths.
func (as *AddressSpace) entry(vpn uint64) uint64 {
	if d := vpn>>leafShift - as.dirBase; d < uint64(len(as.dir)) {
		if l := as.dir[d]; l != nil {
			return l[vpn&leafMask]
		}
	}
	return 0
}

// slot returns vpn's page-table entry for writing, growing the directory
// to reach its leaf and allocating the leaf if it has none yet.
func (as *AddressSpace) slot(vpn uint64) *uint64 {
	n := vpn >> leafShift
	if len(as.dir) == 0 {
		as.dirBase = n
	}
	if n < as.dirBase {
		grown := make([]*leaf, uint64(len(as.dir))+as.dirBase-n)
		copy(grown[as.dirBase-n:], as.dir)
		as.dir, as.dirBase = grown, n
	}
	d := n - as.dirBase
	if d >= uint64(len(as.dir)) {
		// Nothing writes past len(dir) and the directory never shrinks,
		// so the entries the reslice exposes are still nil.
		as.dir = slices.Grow(as.dir, int(d)+1-len(as.dir))[:d+1]
	}
	if as.dir[d] == nil {
		as.dir[d] = new(leaf)
	}
	return &as.dir[d][vpn&leafMask]
}

// walk calls fn on every populated entry with a VPN in [lo, hi), in VPN
// order, skipping the leaves no fault reached. It stops at fn's first
// error and returns it.
func (as *AddressSpace) walk(lo, hi uint64, fn func(vpn uint64, e *uint64) error) error {
	for d := max(lo>>leafShift, as.dirBase) - as.dirBase; d < uint64(len(as.dir)); d++ {
		l := as.dir[d]
		if l == nil {
			continue
		}
		base := (as.dirBase + d) << leafShift
		if base >= hi {
			break
		}
		for i := range l {
			if vpn := base | uint64(i); l[i] != 0 && lo <= vpn && vpn < hi {
				if err := fn(vpn, &l[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// FindVMA returns the VMA containing va, or nil.
func (as *AddressSpace) FindVMA(va VA) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Start <= va && va < as.vmas[i].End {
		return &as.vmas[i]
	}
	return nil
}

// Translate resolves a VA to a physical byte address, faulting the page
// in on first access. The hit path is a directory load and a leaf load;
// misses fall through to translateSlow, the page-fault-handler path of
// §6.1.
//
//sdam:noalloc
func (as *AddressSpace) Translate(va VA) (uint64, error) {
	if e := as.entry(va.VPN()); e != 0 {
		return (e-1)<<geom.PageShift | va.PageOffset(), nil
	}
	return as.translateSlow(va)
}

// translateSlow handles the first touch of a page: the frame comes from
// the chunk group of the enclosing VMA's mapping ID.
func (as *AddressSpace) translateSlow(va VA) (uint64, error) {
	v := as.FindVMA(va)
	if v == nil {
		return 0, fmt.Errorf("vm: segmentation fault at %#x (pid %d)", uint64(va), as.pid)
	}
	f, err := as.kernel.Phys.AllocFrame(v.MapID)
	if err != nil {
		return 0, fmt.Errorf("vm: page fault at %#x: %w", uint64(va), err)
	}
	*as.slot(va.VPN()) = uint64(f) + 1
	as.mapped++
	as.faults++
	return f.PA() | va.PageOffset(), nil
}

// TranslateLine resolves a VA to the cache-line physical address the
// memory controller consumes. The hit path shifts the cached frame
// directly — no second table probe, no byte-address round trip.
//
//sdam:noalloc
func (as *AddressSpace) TranslateLine(va VA) (geom.LineAddr, error) {
	if e := as.entry(va.VPN()); e != 0 {
		return geom.LineAddr(((e-1)<<geom.PageShift | va.PageOffset()) >> geom.LineShift), nil
	}
	pa, err := as.translateSlow(va)
	if err != nil {
		return 0, err
	}
	return geom.PA(pa), nil
}

// TranslateLinePeek resolves a VA to its line physical address without
// side effects: a populated page translates, an unpopulated (or
// unmapped) one reports ok=false instead of taking a demand fault.
// Tape sealing uses it to pre-translate a recorded stream against an
// already-populated address space — a fault there would perturb the
// fault order the simulated run is defined by.
//
//sdam:noalloc
func (as *AddressSpace) TranslateLinePeek(va VA) (geom.LineAddr, bool) {
	if e := as.entry(va.VPN()); e != 0 {
		return geom.LineAddr(((e-1)<<geom.PageShift | va.PageOffset()) >> geom.LineShift), true
	}
	return 0, false
}

// Remap moves the VMA starting at start to a different address mapping:
// every populated page migrates to a frame in the new mapping's chunk
// group and the VMA's mapping ID changes, so future faults follow suit.
// This is §6.1's "way to move memory between mappings" — the data copy
// a real kernel would do is implicit in the frame change. Returns the
// number of pages migrated.
func (as *AddressSpace) Remap(start VA, newMapID int) (int, error) {
	if newMapID < 0 || newMapID >= cmt.MaxMappings {
		return 0, fmt.Errorf("vm: mapping ID %d out of range", newMapID)
	}
	var v *VMA
	for i := range as.vmas {
		if as.vmas[i].Start == start {
			v = &as.vmas[i]
			break
		}
	}
	if v == nil {
		return 0, fmt.Errorf("vm: no VMA starts at %#x", uint64(start))
	}
	if v.MapID == newMapID {
		return 0, nil
	}
	migrated := 0
	err := as.walk(v.Start.VPN(), v.End.VPN(), func(vpn uint64, e *uint64) error {
		fresh, err := as.kernel.Phys.AllocFrame(newMapID)
		if err != nil {
			return fmt.Errorf("vm: remapping page %#x: %w", vpn, err)
		}
		if err := as.kernel.Phys.FreeFrame(chunk.Frame(*e - 1)); err != nil {
			return err
		}
		*e = uint64(fresh) + 1
		migrated++
		return nil
	})
	if err != nil {
		return migrated, err
	}
	v.MapID = newMapID
	return migrated, nil
}

// Populate eagerly faults in every page of the VMA starting at start,
// for workloads that want allocation cost up front.
func (as *AddressSpace) Populate(start VA) error {
	v := as.FindVMA(start)
	if v == nil {
		return fmt.Errorf("vm: no VMA at %#x", uint64(start))
	}
	for va := v.Start; va < v.End; va += geom.PageBytes {
		if _, err := as.Translate(va); err != nil {
			return err
		}
	}
	return nil
}

// VMAs returns a copy of the address space's areas, sorted by start.
func (as *AddressSpace) VMAs() []VMA {
	out := append([]VMA(nil), as.vmas...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Faults returns the number of demand-paging faults taken.
func (as *AddressSpace) Faults() uint64 { return as.faults }

// CheckInvariants verifies per-space consistency: every populated page
// lies in a VMA, its frame's chunk carries the VMA's mapping, and no
// frame backs two pages (DESIGN.md invariants 4-5). It walks only the
// leaves a fault reached, merging their pages against the sorted VMAs,
// and marks frames in a bitmap, so it costs what the process touched.
func (as *AddressSpace) CheckInvariants() error {
	// The walk is in VPN order, so the first invariant violation reported
	// is always the same one, run to run.
	nFrames := uint64(as.kernel.Phys.Chunks()) * geom.PagesPerChunk
	var seen []uint64 // frame bitmap, grown to the highest frame met
	j := 0            // as.vmas[j] is the first VMA ending above vpn
	return as.walk(0, math.MaxUint64, func(vpn uint64, e *uint64) error {
		for j < len(as.vmas) && as.vmas[j].End.VPN() <= vpn {
			j++
		}
		if j == len(as.vmas) || vpn < as.vmas[j].Start.VPN() {
			return fmt.Errorf("vm: page %#x populated outside any VMA", vpn)
		}
		f := chunk.Frame(*e - 1)
		// A frame outside physical memory fails MappingOf below on its
		// first page, so only in-range frames need a bit.
		if uint64(f) < nFrames {
			w := int(f / 64)
			if w >= len(seen) {
				// As in slot: nothing writes past len(seen), so the
				// exposed words are still zero.
				seen = slices.Grow(seen, w+1-len(seen))[:w+1]
			}
			if seen[w]>>(f%64)&1 != 0 {
				return as.duplicateFrame(f, vpn)
			}
			seen[w] |= 1 << (f % 64)
		}
		m, err := as.kernel.Phys.MappingOf(f)
		if err != nil {
			return err
		}
		if m != as.vmas[j].MapID {
			return fmt.Errorf("vm: page %#x frame mapping %d != VMA mapping %d", vpn, m, as.vmas[j].MapID)
		}
		return nil
	})
}

// duplicateFrame reports frame f backing both vpn and the lowest page
// below it with that frame. Only CheckInvariants' error path needs the
// first page, so it walks the table again rather than the check
// recording a page per frame.
func (as *AddressSpace) duplicateFrame(f chunk.Frame, vpn uint64) error {
	return as.walk(0, vpn, func(first uint64, e *uint64) error {
		if *e == uint64(f)+1 {
			return fmt.Errorf("vm: frame %d backs pages %#x and %#x", f, first, vpn)
		}
		return nil
	})
}
