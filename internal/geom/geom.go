// Package geom defines the physical geometry of the simulated 3D-stacked
// memory and the fixed hardware-address (HA) bit-field layout used by the
// rest of the system.
//
// The reproduction follows the paper's prototype: 8 GB of HBM2 organized
// as 32 independent channels, 16 banks per channel, and 256 B row buffers,
// accessed at 64 B cache-line granularity. Address-mapping hardware (the
// AMU) operates on cache-line addresses inside a 2 MB chunk, i.e. on a
// 15-bit chunk offset, exactly as in the paper (§5.2).
package geom

import "fmt"

// Fundamental constants of the prototype platform. These mirror the
// paper's FPGA system (§7.1) and are deliberately untyped constants so
// they can be used in both int and uint64 contexts.
const (
	// LineBytes is the cache-line size of the simulated RISC-V CPU and
	// the access granularity of the memory system.
	LineBytes = 64
	// LineShift is log2(LineBytes).
	LineShift = 6

	// PageBytes is the virtual-memory page size.
	PageBytes = 4096
	// PageShift is log2(PageBytes).
	PageShift = 12

	// ChunkBytes is the SDAM chunk size (§4: 2 MB balances CMT storage
	// against internal fragmentation).
	ChunkBytes = 2 << 20
	// ChunkShift is log2(ChunkBytes).
	ChunkShift = 21

	// OffsetBits is the number of cache-line-granularity address bits
	// inside one chunk: log2(ChunkBytes/LineBytes) = 15. This is the
	// width of the AMU crossbar.
	OffsetBits = ChunkShift - LineShift

	// PagesPerChunk is the number of 4 KB pages in a chunk.
	PagesPerChunk = ChunkBytes / PageBytes
	// LinesPerPage is the number of cache lines in a page.
	LinesPerPage = PageBytes / LineBytes
	// LinesPerChunk is the number of cache lines in a chunk.
	LinesPerChunk = ChunkBytes / LineBytes
)

// Geometry describes one 3D-memory device configuration. The zero value
// is not useful; construct with Default or validate with Check.
type Geometry struct {
	Channels    int // independent channels (CLP); 32 on the prototype
	Banks       int // banks per channel (BLP)
	Rows        int // rows per bank
	RowBytes    int // row-buffer size in bytes; 256 for HBM2
	CapacityGiB int // total capacity, for cross-checking
}

// Default returns the paper's prototype geometry: two HBM2 stacks,
// 32 channels total, 16 banks/channel, 256 B rows, 8 GB.
func Default() Geometry {
	return Geometry{
		Channels:    32,
		Banks:       16,
		Rows:        1 << 16,
		RowBytes:    256,
		CapacityGiB: 8,
	}
}

// HMC returns a Hybrid Memory Cube-style geometry — the other 3D-memory
// realization the paper discusses (§2.1): 32 independent vaults (the
// HMC term for channels), fewer banks per vault, 256 B rows, 8 GB.
func HMC() Geometry {
	return Geometry{
		Channels:    32,
		Banks:       8,
		Rows:        1 << 17,
		RowBytes:    256,
		CapacityGiB: 8,
	}
}

// Check verifies internal consistency: the product of the hierarchy must
// equal the stated capacity and every level must be a power of two.
func (g Geometry) Check() error {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"channels", g.Channels},
		{"banks", g.Banks},
		{"rows", g.Rows},
		{"row bytes", g.RowBytes},
	} {
		if v.n <= 0 || v.n&(v.n-1) != 0 {
			return fmt.Errorf("geom: %s (%d) must be a positive power of two", v.name, v.n)
		}
	}
	if g.RowBytes < LineBytes {
		return fmt.Errorf("geom: row bytes (%d) smaller than line size (%d)", g.RowBytes, LineBytes)
	}
	total := uint64(g.Channels) * uint64(g.Banks) * uint64(g.Rows) * uint64(g.RowBytes)
	want := uint64(g.CapacityGiB) << 30
	if total != want {
		return fmt.Errorf("geom: hierarchy product %d B != stated capacity %d B", total, want)
	}
	return nil
}

// TotalBytes returns the device capacity in bytes.
func (g Geometry) TotalBytes() uint64 { return uint64(g.CapacityGiB) << 30 }

// TotalLines returns the number of cache lines the device holds.
func (g Geometry) TotalLines() uint64 { return g.TotalBytes() / LineBytes }

// Chunks returns the number of 2 MB chunks the device holds.
func (g Geometry) Chunks() int { return int(g.TotalBytes() / ChunkBytes) }

// LinesPerRow returns how many cache lines fit in one row buffer.
func (g Geometry) LinesPerRow() int { return g.RowBytes / LineBytes }

// Bits reports the widths of the HA fields at line granularity.
func (g Geometry) Bits() FieldBits {
	return FieldBits{
		Channel: log2(g.Channels),
		Bank:    log2(g.Banks),
		Column:  log2(g.LinesPerRow()),
		Row:     log2(g.Rows),
	}
}

// FieldBits records the bit width of each HA field.
type FieldBits struct {
	Channel, Bank, Column, Row int
}

// OffsetFields reports how the widths split across the 15-bit chunk
// offset. Row bits in excess of RowLow come from the chunk number.
func (b FieldBits) OffsetFields() (channel, column, bank, rowLow int) {
	channel, column, bank = b.Channel, b.Column, b.Bank
	rowLow = OffsetBits - channel - column - bank
	return
}

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// HardwareAddress identifies one cache line inside the 3D hierarchy.
type HardwareAddress struct {
	Channel int
	Bank    int
	Row     int
	Column  int // cache-line index within the row buffer
}

// String renders the address in a compact ch/bank/row/col form.
func (ha HardwareAddress) String() string {
	return fmt.Sprintf("ch%d/b%d/r%#x/c%d", ha.Channel, ha.Bank, ha.Row, ha.Column)
}

// LineAddr is a cache-line-granularity physical address (PA >> LineShift).
type LineAddr uint64

// PA converts a byte-granularity physical address to a line address.
func PA(pa uint64) LineAddr { return LineAddr(pa >> LineShift) }

// Byte returns the byte-granularity physical address of the line start.
func (l LineAddr) Byte() uint64 { return uint64(l) << LineShift }

// Chunk returns the chunk number of the line.
func (l LineAddr) Chunk() int { return int(l >> OffsetBits) }

// Offset returns the 15-bit offset of the line within its chunk.
func (l LineAddr) Offset() uint32 { return uint32(l) & (1<<OffsetBits - 1) }

// Join reassembles a line address from a chunk number and an offset.
func Join(chunk int, offset uint32) LineAddr {
	return LineAddr(chunk)<<OffsetBits | LineAddr(offset&(1<<OffsetBits-1))
}

// Decode splits a (possibly remapped) line address into HA fields using
// the fixed layout: offset bits [4:0] channel, [6:5] column, [10:7] bank,
// [14:11] row-low; the chunk number supplies the high row bits. The
// layout is parameterized by the geometry so narrower configurations
// (e.g. Fig 1's channel sweeps) decode consistently. It is the readable
// reference the tests hold Decoder to; code that decodes in a loop
// builds a Decoder once instead.
func (g Geometry) Decode(l LineAddr) HardwareAddress {
	b := g.Bits()
	off := uint64(l.Offset())
	pos := 0
	take := func(n int) int {
		v := int(off>>pos) & (1<<n - 1)
		pos += n
		return v
	}
	var ha HardwareAddress
	ha.Channel = take(b.Channel)
	ha.Column = take(b.Column)
	ha.Bank = take(b.Bank)
	rowLow := take(OffsetBits - pos)
	_, _, _, rowLowBits := b.OffsetFields()
	ha.Row = (l.Chunk()<<rowLowBits | rowLow) % g.Rows
	// Permutation-based bank interleaving (Zhang et al., MICRO-33; the
	// paper's ref [50]): fold the row index into the bank index so that
	// equal-offset streams in different rows — including rows in
	// different chunks — land in different banks. This is a fixed
	// controller feature below the address mapping, the same for the
	// baseline and SDAM configurations; it is a bijection for any fixed
	// row, so PA↔HA correctness is untouched.
	fold := ha.Row ^ ha.Row>>4 ^ ha.Row>>8
	ha.Bank ^= fold & (g.Banks - 1)
	return ha
}

// Decoder is a Geometry's Decode pipeline with the field shifts and
// masks computed once. Decode re-derives the bit widths (four log2
// loops) on every call, which dominated the address split on the
// simulation hot path; constructing a Decoder hoists that work out of
// the loop. Requires a Check-ed geometry — every level a power of two,
// which also turns the row modulo into a mask. Decode here is
// bit-for-bit identical to Geometry.Decode.
type Decoder struct {
	chanMask    uint64
	colShift    uint
	colMask     uint64
	bankShift   uint
	bankMask    uint64
	rowLowShift uint
	rowLowBits  uint
	rowMask     uint64
	bankFold    int
}

// NewDecoder precomputes the decode pipeline for g, which must satisfy
// g.Check().
func (g Geometry) NewDecoder() Decoder {
	b := g.Bits()
	_, _, _, rowLowBits := b.OffsetFields()
	return Decoder{
		chanMask:    1<<b.Channel - 1,
		colShift:    uint(b.Channel),
		colMask:     1<<b.Column - 1,
		bankShift:   uint(b.Channel + b.Column),
		bankMask:    1<<b.Bank - 1,
		rowLowShift: uint(b.Channel + b.Column + b.Bank),
		rowLowBits:  uint(rowLowBits),
		rowMask:     uint64(g.Rows) - 1,
		bankFold:    g.Banks - 1,
	}
}

// Decode splits a line address into HA fields; see Geometry.Decode for
// the layout and the bank-interleaving fold it reproduces exactly.
//
//sdam:noalloc
func (d Decoder) Decode(l LineAddr) HardwareAddress {
	off := uint64(l) & (1<<OffsetBits - 1)
	var ha HardwareAddress
	ha.Channel = int(off & d.chanMask)
	ha.Column = int(off >> d.colShift & d.colMask)
	ha.Bank = int(off >> d.bankShift & d.bankMask)
	ha.Row = int((uint64(l)>>OffsetBits<<d.rowLowBits | off>>d.rowLowShift) & d.rowMask)
	fold := ha.Row ^ ha.Row>>4 ^ ha.Row>>8
	ha.Bank ^= fold & d.bankFold
	return ha
}
