// Package trace implements the profiling substrate of §6.2: it observes
// every external memory access of a simulated program, attributes it to
// the program *variable* (allocation site) that owns the address —
// the call-stack-matching step of the paper — and accumulates the
// per-variable statistics the mapping-selection machinery consumes.
//
// Variables follow the paper's definition (after Ji et al.): a variable
// is the reference symbol for a piece of allocated memory, identified by
// its allocation call stack. All blocks allocated from one site belong
// to one variable.
//
// Bit-flip statistics are folded in online, so arbitrarily long runs
// profile in O(1) memory per variable; a bounded delta sequence is kept
// for the DL-based selector's training input.
package trace

import (
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/vaindex"
	"repro/internal/vm"
)

// Access is one external (post-cache) memory access.
type Access struct {
	VA vm.VA         // virtual address
	PA geom.LineAddr // physical line address after translation
}

// Variable aggregates everything known about one allocation site.
type Variable struct {
	VID  int
	Site string
	// PeakBytes is the footprint: the sum of the variable's blocks,
	// which stay live to the end of a profiled run (workloads allocate
	// in Setup and never free). Refs counts external accesses
	// attributed to the variable.
	PeakBytes uint64
	Refs      uint64

	// Online BFRV state: flip counts between consecutive accesses to
	// this variable plus the previous offset observed.
	flips   [geom.OffsetBits]uint64
	prevOff uint32
	started bool

	// Sample retains the first SampleCap chunk offsets the variable
	// touched, letting mapping selection *measure* a candidate's channel
	// balance instead of trusting first-order flip statistics alone.
	Sample []uint32
}

// SampleCap bounds the per-variable offset sample.
const SampleCap = 2048

// BFRV returns the variable's bit-flip-rate vector (paper Eq. 1).
func (v *Variable) BFRV() mapping.BFRV {
	var out mapping.BFRV
	if v.Refs < 2 {
		return out
	}
	n := float64(v.Refs - 1)
	for i, f := range v.flips {
		out[i] = float64(f) / n
	}
	return out
}

// DeltaSample is one element of the DL training sequence: the XOR of two
// consecutive physical line addresses and the variable of the latter
// access (paper Fig 9's (Δ, VID) input pairs). Eight bytes: the
// profile memo keeps up to a million per pass.
type DeltaSample struct {
	Delta uint32 // XOR of consecutive chunk offsets
	VID   int32
}

// Collector observes allocations and accesses for one process.
type Collector struct {
	siteVID map[string]int
	vars    []*Variable
	allocs  []vaindex.Range // every block noted, in allocation order; Val = VID
	index   vaindex.Index   // lookup over allocs, rebuilt lazily
	dirty   bool            // allocs changed since index was built

	// Global delta sequence (bounded) for DL training.
	deltas    []DeltaSample
	maxDeltas int
	prevPA    geom.LineAddr
	prevSet   bool

	// Unattributed counts accesses that matched no live allocation
	// (stack/globals in a real system).
	Unattributed uint64

	// Global flip statistics over the whole external access stream,
	// regardless of attribution — what the hardware-only BS+BSM baseline
	// profiles (§7.3: bit flip rate of the combined workload mix).
	globalFlips [geom.OffsetBits]uint64
	globalCount uint64
}

// NewCollector creates a collector retaining at most maxDeltas delta
// samples (0 means a 1M default).
func NewCollector(maxDeltas int) *Collector {
	if maxDeltas <= 0 {
		maxDeltas = 1 << 20
	}
	return &Collector{
		siteVID:   make(map[string]int),
		maxDeltas: maxDeltas,
	}
}

// VIDOf returns the variable ID for an allocation site, creating it on
// first sight. Accesses reach a variable by address alone (Attribute),
// never by the instruction that issued them.
func (c *Collector) VIDOf(site string) int {
	if vid, ok := c.siteVID[site]; ok {
		return vid
	}
	vid := len(c.vars)
	c.siteVID[site] = vid
	c.vars = append(c.vars, &Variable{VID: vid, Site: site})
	return vid
}

// NoteAlloc records that [va, va+size) now belongs to site's variable.
// Blocks never overlap (the heap hands out disjoint ones). Insertion is
// O(1); the lookup index is rebuilt lazily on the next lookup, so
// registering tens of thousands of variables stays cheap.
func (c *Collector) NoteAlloc(site string, va vm.VA, size uint64) {
	vid := c.VIDOf(site)
	c.allocs = append(c.allocs, vaindex.Range{Start: uint64(va), End: uint64(va) + size, Val: int32(vid)})
	c.dirty = true
	c.vars[vid].PeakBytes += size
}

// Attribute finds the variable owning va, or -1.
func (c *Collector) Attribute(va vm.VA) int {
	if c.dirty {
		c.index = vaindex.New(c.allocs)
		c.dirty = false
	}
	return int(c.index.Find(uint64(va)))
}

// Reserve sizes the delta sequence for a pass of at most refs more
// external accesses, capped at the retention bound, so recording the
// pass never regrows it. The engine calls it with its streams'
// reference count before a run; Trim gives back what the pass left
// unused.
func (c *Collector) Reserve(refs int) {
	c.deltas = slices.Grow(c.deltas, min(refs, c.maxDeltas-len(c.deltas)))
}

// Trim releases the delta sequence's unused capacity. A pass's
// collector outlives it — the profile memo keeps every one for the
// life of the process — so what Reserve set aside for references that
// hit in the caches must not stay with it.
func (c *Collector) Trim() {
	if cap(c.deltas) > len(c.deltas) {
		c.deltas = append([]DeltaSample(nil), c.deltas...)
	}
}

// Record attributes one access and folds it into the statistics.
func (c *Collector) Record(a Access) { c.record(a, c.Attribute(a.VA)) }

// record folds one access, owned by variable vid (-1: none), into the
// statistics.
func (c *Collector) record(a Access, vid int) {
	if c.prevSet {
		diff := c.prevPA.Offset() ^ a.PA.Offset()
		for diff != 0 {
			b := bits.TrailingZeros32(diff)
			c.globalFlips[b]++
			diff &= diff - 1
		}
	}
	c.globalCount++

	if vid < 0 {
		c.Unattributed++
		c.prevPA = a.PA
		c.prevSet = true
		return
	}
	v := c.vars[vid]
	off := a.PA.Offset()
	if v.started {
		diff := v.prevOff ^ off
		for diff != 0 {
			b := bits.TrailingZeros32(diff)
			v.flips[b]++
			diff &= diff - 1
		}
	}
	v.prevOff = off
	v.started = true
	v.Refs++
	if len(v.Sample) < SampleCap {
		v.Sample = append(v.Sample, off)
	}

	if c.prevSet && len(c.deltas) < c.maxDeltas {
		c.deltas = append(c.deltas, DeltaSample{
			Delta: uint32(c.prevPA^a.PA) & (1<<geom.OffsetBits - 1),
			VID:   int32(vid),
		})
	}
	c.prevPA = a.PA
	c.prevSet = true
}

// Variables returns the collected variables ordered by VID.
func (c *Collector) Variables() []*Variable { return c.vars }

// Deltas returns the retained delta sequence.
func (c *Collector) Deltas() []DeltaSample { return c.deltas }

// GlobalBFRV returns the flip-rate vector of the entire external access
// stream, the input to the BS+BSM baseline's one-global-mapping choice.
func (c *Collector) GlobalBFRV() mapping.BFRV {
	var out mapping.BFRV
	if c.globalCount < 2 {
		return out
	}
	n := float64(c.globalCount - 1)
	for i, f := range c.globalFlips {
		out[i] = float64(f) / n
	}
	return out
}

// TotalRefs sums attributed references over all variables.
func (c *Collector) TotalRefs() uint64 {
	var n uint64
	for _, v := range c.vars {
		n += v.Refs
	}
	return n
}
