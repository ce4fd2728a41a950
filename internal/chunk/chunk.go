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
	"slices"

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
	group     int // mapping index, -1 when released
	usedPages int
	bitmap    [geom.PagesPerChunk / 64]uint64
}

// group is the chunk group of one mapping index.
type group struct {
	chunks []int // bound chunks in acquisition order, the first-fit order
	// open is the position in chunks of the first chunk that may have a
	// free page: every chunk before it is full.
	open int
	// guard is the guarded-page predicate of a secure
	// (row-hammer-isolated) group, nil otherwise; pages it marks are
	// never handed out (paper §4's guard rows). guarded counts them.
	guard   func(page int) bool
	guarded int
}

// usable returns how many pages of each of the group's chunks are
// allocatable.
func (g *group) usable() int { return geom.PagesPerChunk - g.guarded }

// Allocator manages the physical chunks of one device.
//
// The global free list is split in two. Chunks are handed out 0, 1, 2,
// … with released chunks reused first, so the chunks ever acquired form
// a prefix, and only that prefix has a state: chunks[c] for c <
// len(chunks). Every chunk past it is free and untouched. freeList
// holds the released chunks of the prefix, LIFO.
type Allocator struct {
	table    *cmt.Table
	n        int // chunks managed
	chunks   []chunkState
	freeList []int
	groups   []group // indexed by mapping index
}

// NewAllocator creates an allocator over nChunks chunks. The CMT may be
// nil for software-only tests; when present, every group binding is
// mirrored into it, as the kernel driver does through MMIO.
func NewAllocator(nChunks int, table *cmt.Table) *Allocator {
	return &Allocator{
		table:  table,
		n:      nChunks,
		groups: make([]group, cmt.MaxMappings),
	}
}

// Chunks returns the number of chunks managed.
func (a *Allocator) Chunks() int { return a.n }

// FreeChunks returns how many chunks sit on the global free list.
func (a *Allocator) FreeChunks() int { return len(a.freeList) + a.n - len(a.chunks) }

// state returns chunk c's state, or nil while c is free: released, or
// past the acquired prefix.
func (a *Allocator) state(c int) *chunkState {
	if c >= len(a.chunks) || a.chunks[c].group == -1 {
		return nil
	}
	return &a.chunks[c]
}

// GroupSize returns how many chunks are bound to a mapping index.
func (a *Allocator) GroupSize(mapIdx int) int {
	if mapIdx < 0 || mapIdx >= len(a.groups) {
		return 0
	}
	return len(a.groups[mapIdx].chunks)
}

// SetGuard marks a mapping's chunk group as secure: pages for which the
// predicate returns true (the guard-row pages computed by the rowguard
// package) are never allocated. Must be set before the group acquires
// chunks; a nil predicate clears the guard.
func (a *Allocator) SetGuard(mapIdx int, guard func(page int) bool) error {
	if mapIdx < 0 || mapIdx >= cmt.MaxMappings {
		return fmt.Errorf("chunk: mapping index %d out of range", mapIdx)
	}
	g := &a.groups[mapIdx]
	if len(g.chunks) > 0 {
		return fmt.Errorf("chunk: group %d already holds chunks; guards must precede allocation", mapIdx)
	}
	guarded := 0
	if guard != nil {
		for p := 0; p < geom.PagesPerChunk; p++ {
			if guard(p) {
				guarded++
			}
		}
		if guarded == geom.PagesPerChunk {
			return fmt.Errorf("chunk: guard predicate leaves no allocatable pages")
		}
	}
	g.guard, g.guarded = guard, guarded
	return nil
}

// AllocFrame hands out one page frame whose chunk is bound to mapIdx,
// growing the chunk group from the global free list when needed.
func (a *Allocator) AllocFrame(mapIdx int) (Frame, error) {
	if mapIdx < 0 || mapIdx >= cmt.MaxMappings {
		return 0, fmt.Errorf("chunk: mapping index %d out of range", mapIdx)
	}
	// First fit within the existing group, starting past the chunks
	// known to be full.
	g := &a.groups[mapIdx]
	for ; g.open < len(g.chunks); g.open++ {
		if c := g.chunks[g.open]; a.chunks[c].usedPages < g.usable() {
			return a.takePage(c, g.guard)
		}
	}
	// Grow the group: the new chunk lands at position g.open.
	c, err := a.acquireChunk(mapIdx)
	if err != nil {
		return 0, err
	}
	return a.takePage(c, g.guard)
}

// acquireChunk moves a chunk from the global free list into a group and
// records the binding in the CMT: the last released chunk, else the
// first chunk never acquired.
func (a *Allocator) acquireChunk(mapIdx int) (int, error) {
	released := len(a.freeList) > 0
	var c int
	switch {
	case released:
		c = a.freeList[len(a.freeList)-1]
		if a.chunks[c].group != -1 {
			return 0, fmt.Errorf("chunk: free-list chunk %d already grouped (corruption)", c)
		}
	case len(a.chunks) < a.n:
		c = len(a.chunks)
	default:
		return 0, fmt.Errorf("chunk: out of physical memory (all %d chunks in use)", a.n)
	}
	if a.table != nil {
		if err := a.table.BindChunk(c, mapIdx); err != nil {
			return 0, fmt.Errorf("chunk: CMT bind failed: %w", err)
		}
	}
	if released {
		a.freeList = a.freeList[:len(a.freeList)-1]
		a.chunks[c].group = mapIdx
	} else {
		a.chunks = append(a.chunks, chunkState{group: mapIdx})
	}
	a.groups[mapIdx].chunks = append(a.groups[mapIdx].chunks, c)
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
	if c < 0 || c >= a.n {
		return fmt.Errorf("chunk: frame %d outside physical memory", f)
	}
	st := a.state(c)
	if st == nil {
		return fmt.Errorf("chunk: freeing frame %d in unallocated chunk %d", f, c)
	}
	page := int(uint64(f) % geom.PagesPerChunk)
	w, b := page/64, page%64
	if st.bitmap[w]>>b&1 == 0 {
		return fmt.Errorf("chunk: double free of frame %d", f)
	}
	g := &a.groups[st.group]
	if st.usedPages >= g.usable() {
		// A full chunk may sit before the group's open position; the
		// free makes it the first fit again if it does.
		if i := slices.Index(g.chunks, c); i < g.open {
			g.open = i
		}
	}
	st.bitmap[w] &^= 1 << uint(b)
	st.usedPages--
	if st.usedPages == 0 {
		a.releaseChunk(c)
	}
	return nil
}

func (a *Allocator) releaseChunk(c int) {
	g := &a.groups[a.chunks[c].group]
	// An empty chunk is not full, so it sits at or after g.open, and
	// removing it leaves the full chunks before g.open in place.
	if i := slices.Index(g.chunks, c); i >= 0 {
		g.chunks = slices.Delete(g.chunks, i, i+1)
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
	if c < 0 || c >= a.n {
		return 0, fmt.Errorf("chunk: frame %d outside physical memory", f)
	}
	st := a.state(c)
	if st == nil {
		return 0, fmt.Errorf("chunk: frame %d in free chunk", f)
	}
	return st.group, nil
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
	total := a.n * geom.PagesPerChunk
	if total > 0 {
		f.WastedFraction = float64(f.WastedPages) / float64(total)
	}
	return f
}

// CheckInvariants verifies the allocator's structural invariants:
// disjoint group membership, free-list/group partition of the acquired
// prefix, and CMT agreement.
func (a *Allocator) CheckInvariants() error {
	// owner[c] records where chunk c was met: 0 not yet, g+1 in group g,
	// -1 on the free list. Groups are walked in mapping-index order, so
	// the first violation reported is the same run to run.
	owner := make([]int, len(a.chunks))
	where := func(o int) string {
		if o < 0 {
			return "free list"
		}
		return fmt.Sprintf("group %d", o-1)
	}
	met := 0
	for g := range a.groups {
		for _, c := range a.groups[g].chunks {
			if owner[c] != 0 {
				return fmt.Errorf("chunk: chunk %d in both %s and %s", c, where(owner[c]), where(g+1))
			}
			owner[c] = g + 1
			met++
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
		if owner[c] != 0 {
			return fmt.Errorf("chunk: chunk %d on free list and in %s", c, where(owner[c]))
		}
		owner[c] = -1
		met++
		if a.chunks[c].group != -1 {
			return fmt.Errorf("chunk: free chunk %d has group %d", c, a.chunks[c].group)
		}
	}
	if met != len(a.chunks) {
		return fmt.Errorf("chunk: %d of %d chunks unaccounted for", len(a.chunks)-met, len(a.chunks))
	}
	return nil
}
