// Package rowguard implements the row-hammer mitigation sketched in the
// paper's §4: because every SDAM chunk is a large set of contiguous rows
// within each bank, strong physical isolation between security domains
// only requires keeping data out of each secure chunk's *boundary rows*
// — the rows physically adjacent to another chunk's rows. Hammering any
// row inside the chunk then cannot disturb data outside it, and outside
// aggressors cannot reach its data (the CAn't-Touch-This guard-row
// methodology applied at chunk granularity).
//
// Which pages of a chunk touch boundary rows depends on the chunk's
// address mapping: the AMU shuffle decides which offset bits select the
// row. This package computes the guarded-page set for a given mapping so
// the physical allocator can skip those pages.
package rowguard

import (
	"repro/internal/geom"
	"repro/internal/mapping"
)

// GuardedPages returns, for a chunk using the given mapping,
// which of its pages contain at least one cache line mapping to a
// boundary row (lowest or highest row-low value). Data placed only in
// unguarded pages is isolated from neighbouring chunks by at least one
// empty row on each side in every bank. g must satisfy g.Check().
func GuardedPages(m *mapping.Linear, g geom.Geometry) []bool {
	_, _, _, rowLowBits := g.Bits().OffsetFields()
	lo := 0
	hi := 1<<rowLowBits - 1
	dec := g.NewDecoder()
	guarded := make([]bool, geom.PagesPerChunk)
	for p := 0; p < geom.PagesPerChunk; p++ {
		for l := 0; l < geom.LinesPerPage; l++ {
			off := uint32(p*geom.LinesPerPage + l)
			ha := dec.Decode(geom.Join(0, m.MapOffset(off)))
			rowLow := ha.Row & hi
			if rowLow == lo || rowLow == hi {
				guarded[p] = true
				break
			}
		}
	}
	return guarded
}

// Overhead reports the fraction of a chunk's pages sacrificed to guard
// rows under the given mapping.
func Overhead(m *mapping.Linear, g geom.Geometry) float64 {
	guarded := GuardedPages(m, g)
	n := 0
	for _, b := range guarded {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(guarded))
}

// Isolated verifies the guard property for a mapping: no unguarded
// page shares a (channel, bank) row adjacency with a row outside the
// chunk's row-low range. It returns false if any unguarded line sits in
// a boundary row. g must satisfy g.Check().
func Isolated(m *mapping.Linear, g geom.Geometry) bool {
	_, _, _, rowLowBits := g.Bits().OffsetFields()
	hi := 1<<rowLowBits - 1
	dec := g.NewDecoder()
	guarded := GuardedPages(m, g)
	for p := 0; p < geom.PagesPerChunk; p++ {
		if guarded[p] {
			continue
		}
		for l := 0; l < geom.LinesPerPage; l++ {
			off := uint32(p*geom.LinesPerPage + l)
			ha := dec.Decode(geom.Join(0, m.MapOffset(off)))
			rowLow := ha.Row & hi
			if rowLow == 0 || rowLow == hi {
				return false
			}
		}
	}
	return true
}
