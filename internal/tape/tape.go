// Package tape materializes a workload's reference streams once per
// {workload parameters, seed} into immutable flat columns — a
// "reference tape" — that every sweep cell replays instead of re-running
// the stream generator. The legality argument is the same invariant the
// engine's stream contract already relies on: a stream's reference
// *sequence* is a pure function of the workload's parameters, its seed,
// and its allocation base addresses; only issue *times* vary with the
// memory configuration. Sweeps that compare many configurations over one
// workload therefore regenerate identical sequences per cell — graph
// construction, algorithm execution, pattern-state evolution — and all
// of that work is config-invariant.
//
// Because the paper's kernel and proxy workloads address memory as
// (allocation, offset) — apps index arrays, mix streams draw offsets
// inside variables — a recorded tape is *rebasable*: each reference is
// stored as the allocation slot it landed in and its offset from that
// allocation's base, and replaying under a different VM layout (a
// different configuration's chunk groups place the heap differently)
// just adds that cell's base for the slot. Physical
// addresses are deliberately NOT shared across configurations: demand
// paging assigns frames in first-touch order, which depends on the
// configuration's timing, so pre-translated PAs are only valid for one
// concrete address space — the Seal fast path below, used when a cell
// replays against an already-populated space.
package tape

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/vaindex"
	"repro/internal/vm"
)

// Alloc is one allocation event observed during Workload.Setup.
type Alloc struct {
	Site  string
	Base  vm.VA
	Bytes uint64
}

// Layout is the ordered allocation record of one cell's Setup — capture
// it by passing Note as the workload.Env.OnAlloc hook. Two cells of the
// same workload produce layouts with identical (site, size) sequences
// (allocation order is program order, independent of mapping policy);
// only the bases differ, and that difference is exactly what replay
// rebases across.
type Layout struct {
	Allocs []Alloc
}

// Note records one allocation; it has the workload.Env.OnAlloc shape.
func (l *Layout) Note(site string, va vm.VA, bytes uint64) {
	l.Allocs = append(l.Allocs, Alloc{Site: site, Base: va, Bytes: bytes})
}

// sameShape reports whether the two layouts describe the same
// allocation sequence — equal sites and sizes in order — so each
// slot's offsets are meaningful from the other layout's base.
func (l *Layout) sameShape(o *Layout) bool {
	if len(l.Allocs) != len(o.Allocs) {
		return false
	}
	for i := range l.Allocs {
		if l.Allocs[i].Site != o.Allocs[i].Site || l.Allocs[i].Bytes != o.Allocs[i].Bytes {
			return false
		}
	}
	return true
}

// sameBases reports whether o places every allocation at the recorded
// address, so replay can reuse the recording's bases, and a tape
// with stray references can replay at all.
func (l *Layout) sameBases(o *Layout) bool {
	if !l.sameShape(o) {
		return false
	}
	for i := range l.Allocs {
		if l.Allocs[i].Base != o.Allocs[i].Base {
			return false
		}
	}
	return true
}

// straySlot is the slot of a reference with no (slot, offset) form: one
// outside every allocation, in a slot past the uint16 range, or 4 GiB or
// more into its allocation. Its off entry indexes the stray column.
const straySlot = math.MaxUint16

// Tape is one immutable recording: per-reference columns in stream
// emission order, with stream boundaries in starts. All fields are
// written once by Record and only read afterwards, so one tape is safe
// to share across concurrently running cells.
type Tape struct {
	layout Layout   // the recording cell's allocation layout
	base   []uint64 // the layout's allocation bases, by slot

	// Reference i is base[slot[i]] + off[i], six bytes plus its write
	// bit, unless slot[i] == straySlot: then it is stray[off[i]].
	off   []uint32
	slot  []uint16
	write []uint64 // bitset, 1 = store
	// stray holds the full VAs of stray references and stays nil until
	// the first one. A tape with strays cannot be rebased: only a cell
	// whose layout matches the recording bit-for-bit replays it.
	stray []uint64
	// starts[i] is the first reference index of stream i;
	// starts[len] == total references.
	starts []int
}

// Refs returns the total number of recorded references.
func (t *Tape) Refs() int { return t.starts[len(t.starts)-1] }

// NumStreams returns how many per-thread streams the tape holds.
func (t *Tape) NumStreams() int { return len(t.starts) - 1 }

// Rebasable reports whether the tape can replay under layouts that
// differ from the recording in allocation bases.
func (t *Tape) Rebasable() bool { return len(t.stray) == 0 }

// Bytes approximates the tape's retained memory, for cache accounting.
func (t *Tape) Bytes() int {
	return 4*len(t.off) + 2*len(t.slot) + 8*len(t.write) + 8*len(t.stray) + 8*len(t.starts)
}

func (t *Tape) isWrite(i int) bool { return t.write[i>>6]>>(uint(i)&63)&1 != 0 }

// newSlotIndex maps VAs to allocation slots: each allocation is a
// range whose value is its index in the layout's allocation order.
func newSlotIndex(l *Layout) vaindex.Index {
	ranges := make([]vaindex.Range, len(l.Allocs))
	for i, a := range l.Allocs {
		ranges[i] = vaindex.Range{Start: uint64(a.Base), End: uint64(a.Base) + a.Bytes, Val: int32(i)}
	}
	return vaindex.New(ranges)
}

// bases lists l's allocation bases in slot order, up to straySlot of
// them: any slot past the list, straySlot included, is stray.
func bases(l *Layout) []uint64 {
	out := make([]uint64, min(len(l.Allocs), straySlot))
	for i := range out {
		out[i] = uint64(l.Allocs[i].Base)
	}
	return out
}

// Record drains the given streams — the value of Workload.Streams(seed)
// for the cell whose allocation layout is lay — into an immutable tape.
// The streams are consumed; replay views stand in for them afterwards.
func Record(streams []cpu.Stream, lay Layout) *Tape {
	t := &Tape{layout: Layout{Allocs: append([]Alloc(nil), lay.Allocs...)}}
	t.base = bases(&t.layout)
	t.starts = make([]int, 1, len(streams)+1)
	t.presize(streams)
	idx := newSlotIndex(&t.layout)
	var buf [256]cpu.Ref
	for _, s := range streams {
		for n := s.NextBatch(buf[:]); n > 0; n = s.NextBatch(buf[:]) {
			t.append(buf[:n], &idx)
		}
		t.starts = append(t.starts, len(t.off))
	}
	return t
}

// presize reserves the columns' exact final size from the streams'
// Remaining counts, so recording keeps what it allocates instead of
// growing each column in ~1.25× steps, which allocates about five times
// the retained bytes.
func (t *Tape) presize(streams []cpu.Stream) {
	n := 0
	for _, s := range streams {
		n += s.Remaining()
	}
	t.off = make([]uint32, 0, n)
	t.slot = make([]uint16, 0, n)
	t.write = make([]uint64, 0, (n+63)/64)
}

// append adds one batch of references to the columns. Each column grows
// once per batch (a no-op when presized) and is then filled by index.
func (t *Tape) append(refs []cpu.Ref, idx *vaindex.Index) {
	i0, n := len(t.off), len(refs)
	t.off = slices.Grow(t.off, n)[:i0+n]
	t.slot = slices.Grow(t.slot, n)[:i0+n]
	if words := (i0 + n + 63) / 64; words > len(t.write) {
		w0 := len(t.write)
		t.write = slices.Grow(t.write, words-w0)[:words]
		clear(t.write[w0:])
	}
	for k, r := range refs {
		i, va := i0+k, uint64(r.VA)
		if r.Write {
			t.write[i>>6] |= 1 << (uint(i) & 63)
		}
		if s := idx.Find(va); s >= 0 && int(s) < len(t.base) && va-t.base[s] <= math.MaxUint32 {
			t.slot[i], t.off[i] = uint16(s), uint32(va-t.base[s])
		} else {
			t.slot[i], t.off[i] = straySlot, uint32(len(t.stray))
			t.stray = append(t.stray, va)
		}
	}
}

// basesFor returns the per-slot bases that replay under the cell
// layout lay adds offsets to: the recording's own when lay matches it,
// lay's when only the bases differ, and an error (callers fall back to
// live generation) when the layouts are incompatible or the tape is
// not rebasable.
func (t *Tape) basesFor(lay *Layout) ([]uint64, error) {
	if t.layout.sameBases(lay) {
		return t.base, nil
	}
	if !t.Rebasable() {
		return nil, fmt.Errorf("tape: recording has stray references; replay requires an identical layout")
	}
	if !t.layout.sameShape(lay) {
		return nil, fmt.Errorf("tape: layout shape differs from the recording (%d vs %d allocations)",
			len(lay.Allocs), len(t.layout.Allocs))
	}
	return bases(lay), nil
}

// Streams returns replay streams equivalent to the recorded run for a
// cell whose allocation layout is lay, or basesFor's error.
func (t *Tape) Streams(lay *Layout) ([]cpu.Stream, error) {
	base, err := t.basesFor(lay)
	if err != nil {
		return nil, err
	}
	out := make([]cpu.Stream, t.NumStreams())
	for i := range out {
		out[i] = &replayStream{t: t, base: base, pos: t.starts[i], end: t.starts[i+1]}
	}
	return out, nil
}

// replayStream is one thread's read-only view of a tape, placing each
// slot's allocation at base.
type replayStream struct {
	t    *Tape
	base []uint64
	pos  int
	end  int
}

// Next implements cpu.Stream.
func (r *replayStream) Next() (cpu.Ref, bool) { return cpu.NextOf(r) }

// NextBatch implements cpu.Stream.
func (r *replayStream) NextBatch(buf []cpu.Ref) int {
	n := r.end - r.pos
	if n > len(buf) {
		n = len(buf)
	}
	if n <= 0 {
		return 0
	}
	// Slicing every column to the batch, and testing for a stray as a
	// slot past base, lets the compiler drop every bounds check but
	// the write bitset's.
	t, base, lo := r.t, r.base, r.pos
	off := t.off[lo : lo+n]
	slot, buf := t.slot[lo:lo+len(off)], buf[:len(off)]
	for k, s := range slot {
		var va uint64
		if int(s) < len(base) {
			va = base[s] + uint64(off[k])
		} else {
			va = t.stray[off[k]]
		}
		buf[k] = cpu.Ref{VA: vm.VA(va), Write: t.isWrite(lo + k)}
	}
	r.pos += n
	return n
}

// Remaining implements cpu.Stream.
func (r *replayStream) Remaining() int { return r.end - r.pos }

// Sealed is a tape bound to one concrete, fully populated address
// space: every reference carries its pre-translated physical line
// address, so the engine's tape-replay fast path skips vm.Translate
// entirely. Sealing is only exact for that one address space — demand
// paging ties frame assignment to a specific run's fault order — which
// is why Seal refuses to fault pages in.
type Sealed struct {
	t     *Tape
	base  []uint64
	lines []geom.LineAddr
}

// Seal pre-translates the tape against as, under the cell layout lay.
// Every referenced page must already be populated (e.g. by a prior live
// run on the same space); an unpopulated page is an error, never a
// fault.
func (t *Tape) Seal(lay *Layout, as *vm.AddressSpace) (*Sealed, error) {
	base, err := t.basesFor(lay)
	if err != nil {
		return nil, err
	}
	lines := make([]geom.LineAddr, 0, t.Refs())
	all := replayStream{t: t, base: base, end: t.Refs()}
	var buf [256]cpu.Ref
	for n := all.NextBatch(buf[:]); n > 0; n = all.NextBatch(buf[:]) {
		for _, r := range buf[:n] {
			l, ok := as.TranslateLinePeek(r.VA)
			if !ok {
				return nil, fmt.Errorf("tape: seal: page of %#x not populated; run the tape live once first", r.VA)
			}
			lines = append(lines, l)
		}
	}
	return &Sealed{t: t, base: base, lines: lines}, nil
}

// Streams returns the sealed replay views; they implement
// cpu.LineBatchStream, so the engine consumes the pre-translated lines.
func (s *Sealed) Streams() []cpu.Stream {
	out := make([]cpu.Stream, s.t.NumStreams())
	for i := range out {
		out[i] = &sealedStream{
			replayStream: replayStream{t: s.t, base: s.base, pos: s.t.starts[i], end: s.t.starts[i+1]},
			lines:        s.lines,
		}
	}
	return out
}

// sealedStream adds the pre-translated line column to a replay view.
type sealedStream struct {
	replayStream
	lines []geom.LineAddr
}

// NextBatchLines implements cpu.LineBatchStream: refs and lines fill in
// lockstep from the tape columns.
func (s *sealedStream) NextBatchLines(refs []cpu.Ref, lines []geom.LineAddr) int {
	start := s.pos
	n := s.NextBatch(refs)
	copy(lines[:n], s.lines[start:start+n])
	return n
}
