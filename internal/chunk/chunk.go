// Package chunk implements the kernel-side physical memory manager of
// SDAM (paper §6.1, Fig 7): physical memory is carved into 2 MB chunks;
// chunks with the same address mapping form a chunk group; a global free
// list holds unused chunks. Page frames are allocated from the group
// matching the requested mapping, acquiring a fresh chunk from the free
// list — and writing its binding into the hardware CMT — when the group
// runs dry.
//
// The package enforces the paper's correctness constraint: every frame
// in a chunk carries the chunk's one mapping, and a chunk is never in
// two groups at once.
package chunk

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cmt"
	"repro/internal/geom"
)

// Frame is a physical frame number (PA >> geom.PageShift).
type Frame uint64

// PA returns the byte address of the frame start.
func (f Frame) PA() uint64 { return uint64(f) << geom.PageShift }

// Chunk returns the chunk number containing the frame.
func (f Frame) Chunk() int { return int(f >> (geom.ChunkShift - geom.PageShift)) }

// chunkState tracks one chunk's frame bitmap.
type chunkState struct {
	group     int // mapping index, -1 when free
	usedPages int
	bitmap    [geom.PagesPerChunk / 64]uint64
}

// Allocator manages the physical chunks of one device.
type Allocator struct {
	table  *cmt.Table
	chunks []chunkState
	// freeList holds free chunk numbers LIFO; groups maps mapping index
	// to the chunks currently bound to it.
	freeList []int
	groups   map[int][]int
	// guards maps a mapping index to its guarded-page predicate for
	// secure (row-hammer-isolated) chunk groups; pages the predicate
	// marks are never handed out (paper §4's guard rows).
	guards map[int]func(page int) bool
}

// NewAllocator creates an allocator over nChunks chunks. The CMT may be
// nil for software-only tests; when present, every group binding is
// mirrored into it, as the kernel driver does through MMIO.
func NewAllocator(nChunks int, table *cmt.Table) *Allocator {
	a := &Allocator{
		table:  table,
		chunks: make([]chunkState, nChunks),
		groups: make(map[int][]int),
		guards: make(map[int]func(page int) bool),
	}
	// LIFO from high to low so chunk 0 is handed out first.
	for c := nChunks - 1; c >= 0; c-- {
		a.chunks[c].group = -1
		a.freeList = append(a.freeList, c)
	}
	return a
}

// Chunks returns the number of chunks managed.
func (a *Allocator) Chunks() int { return len(a.chunks) }

// FreeChunks returns how many chunks sit on the global free list.
func (a *Allocator) FreeChunks() int { return len(a.freeList) }

// GroupSize returns how many chunks are bound to a mapping index.
func (a *Allocator) GroupSize(mapIdx int) int { return len(a.groups[mapIdx]) }

// SetGuard marks a mapping's chunk group as secure: pages for which the
// predicate returns true (the guard-row pages computed by the rowguard
// package) are never allocated. Must be set before the group acquires
// chunks; a nil predicate clears the guard.
func (a *Allocator) SetGuard(mapIdx int, guard func(page int) bool) error {
	if mapIdx < 0 || mapIdx >= cmt.MaxMappings {
		return fmt.Errorf("chunk: mapping index %d out of range", mapIdx)
	}
	if len(a.groups[mapIdx]) > 0 {
		return fmt.Errorf("chunk: group %d already holds chunks; guards must precede allocation", mapIdx)
	}
	if guard == nil {
		delete(a.guards, mapIdx)
		return nil
	}
	free := 0
	for p := 0; p < geom.PagesPerChunk; p++ {
		if !guard(p) {
			free++
		}
	}
	if free == 0 {
		return fmt.Errorf("chunk: guard predicate leaves no allocatable pages")
	}
	a.guards[mapIdx] = guard
	return nil
}

// usablePages returns how many pages of a chunk in the given group are
// allocatable (all of them for non-secure groups).
func (a *Allocator) usablePages(mapIdx int) int {
	guard, ok := a.guards[mapIdx]
	if !ok {
		return geom.PagesPerChunk
	}
	n := 0
	for p := 0; p < geom.PagesPerChunk; p++ {
		if !guard(p) {
			n++
		}
	}
	return n
}

// AllocFrame hands out one page frame whose chunk is bound to mapIdx,
// growing the chunk group from the global free list when needed.
func (a *Allocator) AllocFrame(mapIdx int) (Frame, error) {
	if mapIdx < 0 || mapIdx >= cmt.MaxMappings {
		return 0, fmt.Errorf("chunk: mapping index %d out of range", mapIdx)
	}
	// First fit within the existing group.
	usable := a.usablePages(mapIdx)
	for _, c := range a.groups[mapIdx] {
		if a.chunks[c].usedPages < usable {
			return a.takePage(c, a.guards[mapIdx])
		}
	}
	// Grow the group.
	c, err := a.acquireChunk(mapIdx)
	if err != nil {
		return 0, err
	}
	return a.takePage(c, a.guards[mapIdx])
}

// acquireChunk moves a chunk from the global free list into a group and
// records the binding in the CMT.
func (a *Allocator) acquireChunk(mapIdx int) (int, error) {
	if len(a.freeList) == 0 {
		return 0, fmt.Errorf("chunk: out of physical memory (all %d chunks in use)", len(a.chunks))
	}
	c := a.freeList[len(a.freeList)-1]
	a.freeList = a.freeList[:len(a.freeList)-1]
	if a.chunks[c].group != -1 {
		return 0, fmt.Errorf("chunk: free-list chunk %d already grouped (corruption)", c)
	}
	if a.table != nil {
		if err := a.table.BindChunk(c, mapIdx); err != nil {
			a.freeList = append(a.freeList, c)
			return 0, fmt.Errorf("chunk: CMT bind failed: %w", err)
		}
	}
	a.chunks[c].group = mapIdx
	a.groups[mapIdx] = append(a.groups[mapIdx], c)
	return c, nil
}

func (a *Allocator) takePage(c int, guard func(page int) bool) (Frame, error) {
	st := &a.chunks[c]
	for w, word := range st.bitmap[:] {
		// Visit the word's free (zero) bits in ascending order, so the
		// guard sees candidate pages lowest first.
		for free := ^word; free != 0; free &= free - 1 {
			b := bits.TrailingZeros64(free)
			page := w*64 + b
			if guard != nil && guard(page) {
				continue
			}
			st.bitmap[w] |= 1 << b
			st.usedPages++
			return Frame(uint64(c)*geom.PagesPerChunk + uint64(page)), nil
		}
	}
	return 0, fmt.Errorf("chunk: chunk %d unexpectedly full", c)
}

// FreeFrame returns a frame. When its chunk becomes empty the chunk
// leaves its group and rejoins the global free list (the role the Linux
// buddy allocator plays in the paper), and its CMT entry reverts to the
// default mapping.
func (a *Allocator) FreeFrame(f Frame) error {
	c := f.Chunk()
	if c < 0 || c >= len(a.chunks) {
		return fmt.Errorf("chunk: frame %d outside physical memory", f)
	}
	st := &a.chunks[c]
	if st.group == -1 {
		return fmt.Errorf("chunk: freeing frame %d in unallocated chunk %d", f, c)
	}
	page := int(uint64(f) % geom.PagesPerChunk)
	w, b := page/64, page%64
	if st.bitmap[w]>>b&1 == 0 {
		return fmt.Errorf("chunk: double free of frame %d", f)
	}
	st.bitmap[w] &^= 1 << uint(b)
	st.usedPages--
	if st.usedPages == 0 {
		a.releaseChunk(c)
	}
	return nil
}

func (a *Allocator) releaseChunk(c int) {
	g := a.chunks[c].group
	list := a.groups[g]
	for i, cc := range list {
		if cc == c {
			a.groups[g] = append(list[:i], list[i+1:]...)
			break
		}
	}
	a.chunks[c].group = -1
	if a.table != nil {
		// Back to the boot default; ignore the impossible error.
		_ = a.table.BindChunk(c, 0)
	}
	a.freeList = append(a.freeList, c)
}

// MappingOf returns the mapping index a frame's chunk is bound to, or an
// error for frames in free chunks.
func (a *Allocator) MappingOf(f Frame) (int, error) {
	c := f.Chunk()
	if c < 0 || c >= len(a.chunks) {
		return 0, fmt.Errorf("chunk: frame %d outside physical memory", f)
	}
	if a.chunks[c].group == -1 {
		return 0, fmt.Errorf("chunk: frame %d in free chunk", f)
	}
	return a.chunks[c].group, nil
}

// Fragmentation describes internal fragmentation at the chunk level: the
// pages reserved by partially used chunks that no other group can claim
// (the overhead bounded by the number of access patterns, §4).
type Fragmentation struct {
	AllocatedChunks int
	PartialChunks   int
	WastedPages     int
	WastedFraction  float64 // of total capacity
}

// Fragmentation reports the current internal-fragmentation state.
func (a *Allocator) Fragmentation() Fragmentation {
	var f Fragmentation
	for _, st := range a.chunks {
		if st.group == -1 {
			continue
		}
		f.AllocatedChunks++
		if st.usedPages < geom.PagesPerChunk {
			f.PartialChunks++
			f.WastedPages += geom.PagesPerChunk - st.usedPages
		}
	}
	total := len(a.chunks) * geom.PagesPerChunk
	if total > 0 {
		f.WastedFraction = float64(f.WastedPages) / float64(total)
	}
	return f
}

// CheckInvariants verifies the allocator's structural invariants:
// disjoint group membership, free-list/group partition of all chunks,
// and CMT agreement.
func (a *Allocator) CheckInvariants() error {
	// Group IDs in sorted order: the first violation reported must not
	// depend on map iteration order.
	gids := make([]int, 0, len(a.groups))
	for g := range a.groups {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	seen := make(map[int]string, len(a.chunks))
	for _, g := range gids {
		list := a.groups[g]
		for _, c := range list {
			where := fmt.Sprintf("group %d", g)
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("chunk: chunk %d in both %s and %s", c, prev, where)
			}
			seen[c] = where
			if a.chunks[c].group != g {
				return fmt.Errorf("chunk: chunk %d state says group %d, membership says %d", c, a.chunks[c].group, g)
			}
			if a.table != nil {
				idx, err := a.table.MappingIndex(c)
				if err != nil {
					return err
				}
				if idx != g {
					return fmt.Errorf("chunk: chunk %d CMT entry %d != group %d", c, idx, g)
				}
			}
		}
	}
	for _, c := range a.freeList {
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("chunk: chunk %d on free list and in %s", c, prev)
		}
		seen[c] = "free list"
		if a.chunks[c].group != -1 {
			return fmt.Errorf("chunk: free chunk %d has group %d", c, a.chunks[c].group)
		}
	}
	if len(seen) != len(a.chunks) {
		return fmt.Errorf("chunk: %d of %d chunks unaccounted for", len(a.chunks)-len(seen), len(a.chunks))
	}
	return nil
}
