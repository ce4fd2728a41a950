// Package heap implements the user-level memory allocator of SDAM
// (paper §6.1, Fig 8): a glibc-style malloc extended so every heap is
// bound to one address mapping. malloc() takes the mapping ID as an
// extra argument, selects (or creates) a heap with that mapping, and
// falls back to the ordinary free-list machinery inside the heap.
//
// Because heaps are whole-page mmap regions and each heap carries one
// mapping ID, a page never holds data from two mappings — the allocator
// invariant the paper relies on.
package heap

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/vm"
)

// HeapBytes is the size of one heap region requested from the kernel.
// glibc uses 64 MB heaps; we use 4 MB (two chunks) to keep simulated
// footprints small while still spanning multiple chunks.
const HeapBytes = 4 << 20

// Align is the allocation alignment, matching glibc's 16 bytes.
const Align = 16

// extent is a free range [off, off+len) within a heap.
type extent struct{ off, len uint64 }

// heapRegion is one mmap'd heap bound to a single mapping.
type heapRegion struct {
	base  vm.VA
	size  uint64
	mapID int
	free  []extent // sorted by off, coalesced
	used  uint64
}

func (h *heapRegion) alloc(size uint64) (vm.VA, bool) {
	for i := range h.free {
		if h.free[i].len >= size {
			va := h.base + vm.VA(h.free[i].off)
			h.free[i].off += size
			h.free[i].len -= size
			if h.free[i].len == 0 {
				h.free = append(h.free[:i], h.free[i+1:]...)
			}
			h.used += size
			return va, true
		}
	}
	return 0, false
}

func (h *heapRegion) release(off, size uint64) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].off >= off })
	h.free = append(h.free, extent{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = extent{off, size}
	// Coalesce with neighbors.
	if i+1 < len(h.free) && h.free[i].off+h.free[i].len == h.free[i+1].off {
		h.free[i].len += h.free[i+1].len
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	if i > 0 && h.free[i-1].off+h.free[i-1].len == h.free[i].off {
		h.free[i-1].len += h.free[i].len
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
	h.used -= size
}

// Allocation records one live malloc block, including the allocation
// site used by the profiler for call-stack matching (§6.2).
type Allocation struct {
	VA    vm.VA
	Size  uint64
	MapID int
	Site  string
}

// Allocator is one process's malloc state: its heaps, listed per
// mapping ID like Fig 8's heap-mapping array, and its live blocks.
type Allocator struct {
	mu     sync.Mutex
	as     *vm.AddressSpace
	heaps  map[int][]*heapRegion
	blocks map[vm.VA]blockInfo
}

type blockInfo struct {
	size  uint64
	heap  *heapRegion
	site  string
	mapID int
}

// New creates an allocator over an address space.
func New(as *vm.AddressSpace) *Allocator {
	return &Allocator{as: as, heaps: make(map[int][]*heapRegion), blocks: make(map[vm.VA]blockInfo)}
}

// Malloc allocates size bytes bound to mapID. The site string names the
// allocation call stack for profiling. A size of zero is an error, and
// so is one whose round-up to whole pages (which covers the alignment
// round-up) would overflow.
func (a *Allocator) Malloc(size uint64, mapID int, site string) (vm.VA, error) {
	if size == 0 {
		return 0, fmt.Errorf("heap: zero-size malloc")
	}
	if size > math.MaxUint64-(geom.PageBytes-1) {
		return 0, fmt.Errorf("heap: malloc of %d bytes overflows page rounding", size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	size = (size + Align - 1) &^ uint64(Align-1)
	// First heap with this mapping and room wins, as in Fig 8's flow.
	for _, h := range a.heaps[mapID] {
		if va, ok := h.alloc(size); ok {
			a.blocks[va] = blockInfo{size: size, heap: h, site: site, mapID: mapID}
			return va, nil
		}
	}
	// No space: create and attach a new heap.
	regionSize := uint64(HeapBytes)
	if size > regionSize {
		// Large allocations get a dedicated heap rounded to whole pages.
		regionSize = (size + geom.PageBytes - 1) &^ uint64(geom.PageBytes-1)
	}
	base, err := a.as.Mmap(regionSize, mapID, site)
	if err != nil {
		return 0, fmt.Errorf("heap: growing mapping %d: %w", mapID, err)
	}
	h := &heapRegion{base: base, size: regionSize, mapID: mapID, free: []extent{{0, regionSize}}}
	a.heaps[mapID] = append(a.heaps[mapID], h)
	va, ok := h.alloc(size)
	if !ok {
		return 0, fmt.Errorf("heap: fresh heap cannot satisfy %d bytes", size)
	}
	a.blocks[va] = blockInfo{size: size, heap: h, site: site, mapID: mapID}
	return va, nil
}

// Free releases a block returned by Malloc. Like glibc's free(), it
// locates the owning heap by the block address.
func (a *Allocator) Free(va vm.VA) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.blocks[va]
	if !ok {
		return fmt.Errorf("heap: free of unallocated address %#x", uint64(va))
	}
	delete(a.blocks, va)
	b.heap.release(uint64(va-b.heap.base), b.size)
	return nil
}

// Live returns the live allocations, sorted by address, for the
// profiler's variable inventory.
func (a *Allocator) Live() []Allocation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Allocation, 0, len(a.blocks))
	for va, b := range a.blocks {
		out = append(out, Allocation{VA: va, Size: b.size, MapID: b.mapID, Site: b.site})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VA < out[j].VA })
	return out
}

// LiveBytes returns the total bytes of live blocks.
func (a *Allocator) LiveBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for _, b := range a.blocks {
		n += b.size
	}
	return n
}

// CheckInvariants verifies allocator self-consistency: blocks lie inside
// their heaps, heaps of one mapping are disjoint from other mappings'
// heaps, and each heap's used bytes match its live blocks.
func (a *Allocator) CheckInvariants() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Walk blocks and heaps in sorted order so the first violation
	// reported never depends on map iteration order.
	vas := make([]vm.VA, 0, len(a.blocks))
	for va := range a.blocks {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	usedBy := make(map[*heapRegion]uint64)
	for _, va := range vas {
		b := a.blocks[va]
		if va < b.heap.base || uint64(va)+b.size > uint64(b.heap.base)+b.heap.size {
			return fmt.Errorf("heap: block %#x outside its heap", uint64(va))
		}
		if b.mapID != b.heap.mapID {
			return fmt.Errorf("heap: block %#x mapping %d in heap of mapping %d", uint64(va), b.mapID, b.heap.mapID)
		}
		usedBy[b.heap] += b.size
	}
	mapIDs := make([]int, 0, len(a.heaps))
	for mapID := range a.heaps {
		mapIDs = append(mapIDs, mapID)
	}
	sort.Ints(mapIDs)
	for _, mapID := range mapIDs {
		for _, h := range a.heaps[mapID] {
			if h.mapID != mapID {
				return fmt.Errorf("heap: heap %#x filed under mapping %d but bound to %d", uint64(h.base), mapID, h.mapID)
			}
			if h.used != usedBy[h] {
				return fmt.Errorf("heap: heap %#x used=%d but live blocks sum to %d", uint64(h.base), h.used, usedBy[h])
			}
		}
	}
	return nil
}
