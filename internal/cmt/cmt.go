// Package cmt implements the Chunk Mapping Table (paper §5.3): the small
// on-chip SRAM that associates every 2 MB physical chunk with an address
// mapping.
//
// The table is two-level to keep storage compact:
//
//	level 1: chunk number → mapping index        (one byte per chunk)
//	level 2: mapping index → AMU crossbar config (60 bits per mapping)
//
// The OS writes both levels through a memory-mapped I/O style interface;
// the memory controller reads them on every external access. For the
// paper's 128 GB/socket sizing example the two-level design needs
// 67.94 KB versus 491 KB for a flat table — StorageBits reproduces that
// arithmetic.
package cmt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/amu"
)

// MaxMappings is the number of concurrently installed address mappings
// the hardware supports. The paper fixes this at 256 so a level-1 entry
// is exactly one byte.
const MaxMappings = 256

// EntryBits is the width of a level-1 entry: log2(MaxMappings).
const EntryBits = 8

// Table is one CMT instance. It is safe for concurrent use: the OS-side
// writers and the controller-side readers synchronize on an RWMutex,
// standing in for the MMIO bus of the prototype.
type Table struct {
	mu sync.RWMutex

	chunkToIdx []uint8                 // level 1, indexed by chunk number
	configs    [MaxMappings]amu.Config // level 2
	inUse      [MaxMappings]bool

	// gen counts OS-side writes; controller-side caches compare it to
	// know when their snapshot of the table went stale.
	gen atomic.Uint64

	// Reads counts controller-side lookups, Writes OS-side updates.
	// Reads is updated atomically (lookups hold only the read lock).
	Reads, Writes uint64
}

// New creates a table covering nChunks chunks, with every chunk bound to
// mapping index 0, which is pre-installed as the identity (default)
// mapping — matching a system that boots with the BIOS-configured
// mapping everywhere.
func New(nChunks int) *Table {
	if nChunks <= 0 {
		panic("cmt: table must cover at least one chunk")
	}
	t := &Table{chunkToIdx: make([]uint8, nChunks)}
	t.configs[0] = amu.Identity()
	t.inUse[0] = true
	return t
}

// Chunks returns the number of chunks the table covers.
func (t *Table) Chunks() int { return len(t.chunkToIdx) }

// AllocMappingIndex finds a free level-2 slot, installs cfg there, and
// returns the index. It fails when all 256 slots are live — the hardware
// constraint the ML clustering exists to respect.
func (t *Table) AllocMappingIndex(cfg amu.Config) (int, error) {
	if !cfg.Valid() {
		return 0, fmt.Errorf("cmt: configuration is not a valid crossbar setting")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for idx := 1; idx < MaxMappings; idx++ {
		if !t.inUse[idx] {
			t.configs[idx] = cfg
			t.inUse[idx] = true
			t.Writes++
			t.gen.Add(1)
			return idx, nil
		}
	}
	return 0, fmt.Errorf("cmt: all %d mapping slots in use", MaxMappings)
}

// BindChunk points a chunk's level-1 entry at a mapping index. This is
// the write the kernel performs when it moves a chunk into a chunk group
// (§6.1).
func (t *Table) BindChunk(chunk, idx int) error {
	if chunk < 0 || chunk >= len(t.chunkToIdx) {
		return fmt.Errorf("cmt: chunk %d out of range (0..%d)", chunk, len(t.chunkToIdx)-1)
	}
	if idx < 0 || idx >= MaxMappings {
		return fmt.Errorf("cmt: mapping index %d out of range", idx)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.inUse[idx] {
		return fmt.Errorf("cmt: mapping index %d not installed", idx)
	}
	t.chunkToIdx[chunk] = uint8(idx)
	t.Writes++
	t.gen.Add(1)
	return nil
}

// Generation returns a counter that advances on every OS-side write.
// Controller-side caches (the memctrl per-chunk compiled-config cache)
// snapshot it and flush when it moves — the simulator analog of the
// invalidation an MMIO write would broadcast to the controller.
func (t *Table) Generation() uint64 { return t.gen.Load() }

// Lookup is the controller-side read path: chunk number in, crossbar
// configuration out. It performs the two-level indirection of Fig 6.
func (t *Table) Lookup(chunk int) (amu.Config, error) {
	if chunk < 0 || chunk >= len(t.chunkToIdx) {
		return amu.Config{}, fmt.Errorf("cmt: chunk %d out of range", chunk)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	atomic.AddUint64(&t.Reads, 1)
	return t.configs[t.chunkToIdx[chunk]], nil
}

// ReadCount returns the number of controller-side lookups so far.
// Lookup bumps the counter under an RLock, where concurrent readers
// overlap, so the increment and this load must both be atomic —
// sdamvet/atomicmix enforces that any other access to Reads stays
// atomic too.
func (t *Table) ReadCount() uint64 { return atomic.LoadUint64(&t.Reads) }

// WriteCount returns the number of OS-side updates so far. Writes is
// only mutated under the write lock, so reading it takes the read lock.
func (t *Table) WriteCount() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Writes
}

// MappingIndex returns the level-1 entry for a chunk.
func (t *Table) MappingIndex(chunk int) (int, error) {
	if chunk < 0 || chunk >= len(t.chunkToIdx) {
		return 0, fmt.Errorf("cmt: chunk %d out of range", chunk)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.chunkToIdx[chunk]), nil
}

// LiveMappings counts installed level-2 entries (including the default).
func (t *Table) LiveMappings() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, u := range t.inUse {
		if u {
			n++
		}
	}
	return n
}

// Storage describes the SRAM budget of a CMT sizing.
type Storage struct {
	Chunks       int
	Level1Bits   int
	Level2Bits   int
	TotalBits    int
	TotalKB      float64
	FlatBits     int // the strawman single-level table
	FlatKB       float64
	LatencyNanos float64 // SRAM read latency; paper: 6 ns vs >130 ns HBM
}

// StorageBits computes the storage cost for a table covering nChunks
// chunks, reproducing §5.3's arithmetic: level 1 is nChunks×8 bits,
// level 2 is 256×60 bits, and the flat alternative is nChunks×60 bits.
func StorageBits(nChunks int) Storage {
	l1 := nChunks * EntryBits
	l2 := MaxMappings * amu.ConfigBits
	flat := nChunks * amu.ConfigBits
	return Storage{
		Chunks:       nChunks,
		Level1Bits:   l1,
		Level2Bits:   l2,
		TotalBits:    l1 + l2,
		TotalKB:      float64(l1+l2) / 8 / 1000,
		FlatBits:     flat,
		FlatKB:       float64(flat) / 8 / 1000,
		LatencyNanos: 6,
	}
}

// Storage reports the cost of this instance's sizing.
func (t *Table) Storage() Storage { return StorageBits(len(t.chunkToIdx)) }

// String summarizes a storage report.
func (s Storage) String() string {
	return fmt.Sprintf("CMT: %d chunks → two-level %.2f KB (L1 %d b + L2 %d b) vs flat %.0f KB, %gns lookup",
		s.Chunks, s.TotalKB, s.Level1Bits, s.Level2Bits, s.FlatKB, s.LatencyNanos)
}
