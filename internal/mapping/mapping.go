// Package mapping implements the PA→HA address-mapping functions studied
// in the paper: the boot-time default (channel-interleaved) mapping, the
// bit-shuffle mapping realizable by the AMU crossbar, and the XOR-hash
// mapping used by the BS+HM baseline (Liu et al., ISCA'18 style). All
// three are one type, Linear: an invertible 15×15 matrix over GF(2),
// compiled to XOR tables when it is built.
//
// A mapping transforms the 15-bit chunk offset of a cache-line address;
// the chunk number is never touched, which is what guarantees inter-chunk
// correctness (paper §4). Every mapping is a bijection on the offset
// space so that one PA maps to exactly one HA and vice versa.
package mapping

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/geom"
)

// Mapping is what a global-mode controller boots with: the zero-size
// Identity (DM) or a *Linear. Both lower to the one *Linear that every
// access goes through.
type Mapping interface {
	Linear() *Linear
}

// Identity is the default mapping (DM): the memory controller's
// boot-time channel-interleaved layout, under which consecutive cache
// lines land on consecutive channels. With the fixed HA field layout
// (channel in the low offset bits) this is the identity permutation.
type Identity struct{}

// Linear returns the identity matrix, named "DM". It is shared and
// immutable.
func (Identity) Linear() *Linear { return identity }

var identity = func() *Linear {
	perm := make([]int, geom.OffsetBits)
	for i := range perm {
		perm[i] = i
	}
	return MustShuffle(perm, "DM")
}()

const (
	offMask = 1<<geom.OffsetBits - 1
	// loBits splits the offset for the compiled form: the low 8 bits
	// index one XOR table, the high 7 bits another.
	loBits = 8
	hiBits = geom.OffsetBits - loBits
)

// Linear is an invertible linear map over GF(2) on the 15 offset bits:
// HA offset bit i is the XOR of the PA offset bits in row i. A bit
// shuffle (BSM, what the AMU crossbar realizes, §5.2) is the special
// case of one bit per row; the XOR hash (HM) XORs several. Invertibility
// — one PA per HA and vice versa — is checked by Gauss-Jordan
// elimination at construction.
//
// The constructor also compiles the matrix to two XOR tables, one over
// the low 8 offset bits and one over the high 7, so MapOffset is two
// loads and an XOR. That is exact for any linear map, because
// f(a⊕b) = f(a)⊕f(b). A Linear is immutable and safe to share between
// goroutines.
type Linear struct {
	rows, inv [geom.OffsetBits]uint32 // rows[i] = PA bits XORed into HA bit i
	lo        [1 << loBits]uint32
	hi        [1 << hiBits]uint32
	name      string
}

// NewXORHash builds a Linear from row masks. rows[i] is the set of PA
// offset bits whose XOR produces HA offset bit i. Singular matrices are
// rejected. An empty name defaults to "HM".
func NewXORHash(rows []uint32, name string) (*Linear, error) {
	if len(rows) != geom.OffsetBits {
		return nil, fmt.Errorf("mapping: hash has %d rows, want %d", len(rows), geom.OffsetBits)
	}
	if name == "" {
		name = "HM"
	}
	var r [geom.OffsetBits]uint32
	copy(r[:], rows)
	return newLinear(r, name)
}

func newLinear(rows [geom.OffsetBits]uint32, name string) (*Linear, error) {
	m := &Linear{name: name}
	for i, r := range rows {
		m.rows[i] = r & offMask
	}
	inv, ok := invertGF2(m.rows)
	if !ok {
		return nil, fmt.Errorf("mapping: matrix is singular (not invertible)")
	}
	m.inv = inv
	// Column j is the HA image of PA bit j; each table entry is the XOR
	// of the columns of its set bits, built from the entry without its
	// lowest bit.
	var col [geom.OffsetBits]uint32
	for i, r := range m.rows {
		for j := 0; j < geom.OffsetBits; j++ {
			col[j] |= r >> j & 1 << i
		}
	}
	for v := 1; v < len(m.lo); v++ {
		m.lo[v] = m.lo[v&(v-1)] ^ col[bits.TrailingZeros(uint(v))]
	}
	for v := 1; v < len(m.hi); v++ {
		m.hi[v] = m.hi[v&(v-1)] ^ col[loBits+bits.TrailingZeros(uint(v))]
	}
	return m, nil
}

// NewShuffle builds a bit-shuffle mapping from a permutation of
// 0..OffsetBits-1: perm[i] names the PA offset bit that becomes HA
// offset bit i. An empty name defaults to "BSM".
func NewShuffle(perm []int, name string) (*Linear, error) {
	if len(perm) != geom.OffsetBits {
		return nil, fmt.Errorf("mapping: permutation has %d entries, want %d", len(perm), geom.OffsetBits)
	}
	var rows [geom.OffsetBits]uint32
	seen := [geom.OffsetBits]bool{}
	for i, p := range perm {
		if p < 0 || p >= geom.OffsetBits {
			return nil, fmt.Errorf("mapping: permutation entry %d out of range", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("mapping: permutation entry %d repeated (not a bijection)", p)
		}
		seen[p] = true
		rows[i] = 1 << p
	}
	if name == "" {
		name = "BSM"
	}
	return newLinear(rows, name)
}

// MustShuffle is NewShuffle that panics on invalid input; for tests and
// package-internal constants.
func MustShuffle(perm []int, name string) *Linear {
	s, err := NewShuffle(perm, name)
	if err != nil {
		panic(err)
	}
	return s
}

// DefaultXORHash returns the entropy-concentrating hash used by the
// BS+HM baseline, after Liu et al. (ISCA'18): each channel bit XORs one
// higher address bit into the original, harvesting entropy from a
// limited window of address bits (offset bits 0–9 here). The window is
// what makes HM a compromise: common strides spread well, but patterns
// whose variation lives entirely above the window still collapse onto
// one channel — the residual underutilization visible in Fig 11(b).
func DefaultXORHash() *Linear {
	rows := make([]uint32, geom.OffsetBits)
	for i := 0; i < geom.OffsetBits; i++ {
		rows[i] = 1 << i
	}
	for i := 0; i < 5; i++ {
		rows[i] |= 1 << (i + 5)
	}
	h, err := NewXORHash(rows, "HM")
	if err != nil {
		panic("mapping: default hash must be invertible: " + err.Error())
	}
	return h
}

// MapOffset converts a PA chunk offset to the HA chunk offset. Bits
// above the offset are ignored.
//
//sdam:noalloc
func (m *Linear) MapOffset(off uint32) uint32 {
	return m.lo[off&(1<<loBits-1)] ^ m.hi[off>>loBits&(1<<hiBits-1)]
}

// Map applies m to a full line address, preserving the chunk number.
func (m *Linear) Map(l geom.LineAddr) geom.LineAddr {
	return geom.Join(l.Chunk(), m.MapOffset(l.Offset()))
}

// Linear returns m itself, so a *Linear is a Mapping.
func (m *Linear) Linear() *Linear { return m }

// Name identifies the mapping for reports.
func (m *Linear) Name() string { return m.name }

// Rows returns the matrix: Rows()[i] is the mask of PA offset bits XORed
// into HA offset bit i. The array is comparable, so it keys maps.
func (m *Linear) Rows() [geom.OffsetBits]uint32 { return m.rows }

// Inverse returns the HA→PA map, with the same name.
func (m *Linear) Inverse() *Linear {
	inv, err := newLinear(m.inv, m.name)
	if err != nil {
		panic("mapping: inverse of an invertible matrix must be invertible")
	}
	return inv
}

// invertGF2 inverts a square bit matrix by Gauss-Jordan elimination.
func invertGF2(rows [geom.OffsetBits]uint32) ([geom.OffsetBits]uint32, bool) {
	n := geom.OffsetBits
	a := rows
	var inv [geom.OffsetBits]uint32
	for i := 0; i < n; i++ {
		inv[i] = 1 << i
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r]>>col&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return inv, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		for r := 0; r < n; r++ {
			if r != col && a[r]>>col&1 == 1 {
				a[r] ^= a[col]
				inv[r] ^= inv[col]
			}
		}
	}
	return inv, true
}

// BFRV is a bit-flip-rate vector over the chunk-offset bits (paper
// Eq. 1): element i is the fraction of consecutive access pairs in a
// trace whose offset bit i differs.
type BFRV [geom.OffsetBits]float64

// ComputeBFRV computes the BFRV of a cache-line address trace. Only the
// chunk-offset bits participate; chunk-number bits carry no mapping
// freedom. A trace with fewer than two accesses yields the zero vector.
func ComputeBFRV(trace []geom.LineAddr) BFRV {
	var v BFRV
	if len(trace) < 2 {
		return v
	}
	var flips [geom.OffsetBits]int
	prev := trace[0].Offset()
	for _, l := range trace[1:] {
		cur := l.Offset()
		diff := prev ^ cur
		for diff != 0 {
			b := bits.TrailingZeros32(diff)
			flips[b]++
			diff &= diff - 1
		}
		prev = cur
	}
	n := float64(len(trace) - 1)
	for i, f := range flips {
		v[i] = float64(f) / n
	}
	return v
}

// Add accumulates o into v element-wise (for averaging cluster members).
func (v *BFRV) Add(o BFRV) {
	for i := range v {
		v[i] += o[i]
	}
}

// Scale multiplies every element by s.
func (v *BFRV) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// FromBFRV derives the bit-shuffle mapping for an access pattern from
// its BFRV, following the paper's rule (§6.2): the highest-flipping bits
// become channel bits so concurrent accesses spread across channels; the
// next group feeds the column (row-buffer locality), then banks, and the
// lowest-flipping bits select rows.
func FromBFRV(v BFRV, g geom.Geometry, name string) *Linear {
	b := g.Bits()
	chBits, colBits, bankBits, rowBits := b.OffsetFields()

	// Sort PA bits by flip rate, descending; ties broken toward lower
	// bit index so the identity mapping emerges from a streaming trace.
	idx := make([]int, geom.OffsetBits)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, c int) bool {
		if v[idx[a]] != v[idx[c]] {
			return v[idx[a]] > v[idx[c]]
		}
		return idx[a] < idx[c]
	})

	perm := make([]int, geom.OffsetBits)
	pos := 0
	assign := func(haBase, n int) {
		// Within a field, keep PA bit order ascending so that, e.g., a
		// pure streaming trace maps to the identity permutation.
		group := append([]int(nil), idx[pos:pos+n]...)
		sort.Ints(group)
		for k := 0; k < n; k++ {
			perm[haBase+k] = group[k]
		}
		pos += n
	}
	haChannel := 0
	haColumn := haChannel + chBits
	haBank := haColumn + colBits
	haRow := haBank + bankBits
	assign(haChannel, chBits)
	assign(haColumn, colBits)
	assign(haBank, bankBits)
	assign(haRow, rowBits)
	if name == "" {
		name = "BSM"
	}
	return MustShuffle(perm, name)
}

// ForStride returns the bit-shuffle mapping that is optimal for a pure
// stride-s (in cache lines) access pattern: the bits that vary between
// consecutive accesses are exactly the bits at and above log2(s), so
// those become the channel bits. This is the closed-form the paper uses
// for the synthetic benchmark where "the optimal address mapping can be
// derived from the strides directly" (§7.4).
func ForStride(strideLines int, g geom.Geometry) *Linear {
	if strideLines < 1 {
		strideLines = 1
	}
	s := bits.TrailingZeros(uint(strideLines))
	if s >= geom.OffsetBits {
		s = geom.OffsetBits - 1
	}
	// Rotate the offset bits left by s: HA bit i takes PA bit (i+s) mod n,
	// putting the varying bits in the channel field.
	perm := make([]int, geom.OffsetBits)
	for i := range perm {
		perm[i] = (i + s) % geom.OffsetBits
	}
	return MustShuffle(perm, fmt.Sprintf("BSM(stride=%d)", strideLines))
}
