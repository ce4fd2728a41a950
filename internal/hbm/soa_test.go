package hbm

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestScalePreservesRefresh pins the Scale regression: an earlier
// version rebuilt the Timing without TREFI/TRFC, so any frequency-swept
// refresh-enabled run silently lost refresh entirely.
func TestScalePreservesRefresh(t *testing.T) {
	s := DefaultTiming().WithRefresh().Scale(2)
	if s.TREFI != 7800 || s.TRFC != 520 {
		t.Fatalf("Scale(2) refresh params = %v/%v, want 7800/520", s.TREFI, s.TRFC)
	}
	d := New(geom.Default(), s)
	stream(d, 60_000, 32)
	if d.Stats().Refreshes == 0 {
		t.Fatal("scaled refresh-enabled timing produced no refreshes")
	}
}

// TestAccessZeroAllocs pins the device hot path at zero steady-state
// allocations: bank state is flat preallocated planes, and AccessLine
// fuses decode+issue without materializing intermediates. Each measured
// run makes a thousand calls: AllocsPerRun rounds a run's average down
// to whole allocations, so at one call per run a slice growing by
// amortized doubling would read 0.
func TestAccessZeroAllocs(t *testing.T) {
	d := New(geom.Default(), DefaultTiming().WithRefresh())
	stream(d, 1000, 32) // warm up
	const calls = 1000
	ha := geom.HardwareAddress{Channel: 3, Bank: 2, Row: 7, Column: 1}
	if n := testing.AllocsPerRun(4, func() {
		for i := 0; i < calls; i++ {
			d.Access(1e9, ha)
		}
	}); n != 0 {
		t.Fatalf("Device.Access allocates %.1f per %d calls, want 0", n, calls)
	}
	if n := testing.AllocsPerRun(4, func() {
		for i := 0; i < calls; i++ {
			d.AccessLine(2e9, geom.LineAddr(123456+i))
		}
	}); n != 0 {
		t.Fatalf("Device.AccessLine allocates %.1f per %d calls, want 0", n, calls)
	}
}

// TestResetZeroAllocs pins Reset at zero allocations: it only clears
// the planes New sized. bench's hbm layer probe resets one device
// between timed passes, and sdam.Machine.ResetStats resets a live one.
func TestResetZeroAllocs(t *testing.T) {
	d := New(geom.Default(), DefaultTiming())
	stream(d, 1000, 32)
	if n := testing.AllocsPerRun(100, func() { d.Reset() }); n != 0 {
		t.Fatalf("Reset allocates %.1f per call, want 0", n)
	}
}

// nestedDevice re-implements the pre-SoA timing model — per-channel
// slice-of-slices bank state, HardwareAddress-driven issue — as the
// reference the flattened Device must match bit-for-bit.
type nestedDevice struct {
	t           Timing
	busFree     []float64
	nextRefresh []float64
	bankBusy    [][]float64
	colReady    [][]float64
	openRow     [][]int
	refreshes   uint64
}

func newNested(g geom.Geometry, t Timing) *nestedDevice {
	n := &nestedDevice{
		t:           t,
		busFree:     make([]float64, g.Channels),
		nextRefresh: make([]float64, g.Channels),
		bankBusy:    make([][]float64, g.Channels),
		colReady:    make([][]float64, g.Channels),
		openRow:     make([][]int, g.Channels),
	}
	for c := 0; c < g.Channels; c++ {
		n.bankBusy[c] = make([]float64, g.Banks)
		n.colReady[c] = make([]float64, g.Banks)
		n.openRow[c] = make([]int, g.Banks)
		for b := range n.openRow[c] {
			n.openRow[c][b] = -1
		}
		n.nextRefresh[c] = t.TREFI
	}
	return n
}

func (n *nestedDevice) access(at float64, ha geom.HardwareAddress) float64 {
	t := &n.t
	at += t.TFront
	ch, bank, row := ha.Channel, ha.Bank, ha.Row
	if t.TREFI > 0 {
		for at >= n.nextRefresh[ch] || n.busFree[ch] >= n.nextRefresh[ch] {
			end := n.nextRefresh[ch] + t.TRFC
			if n.busFree[ch] < end {
				n.busFree[ch] = end
			}
			for b := range n.openRow[ch] {
				n.openRow[ch][b] = -1
				if n.bankBusy[ch][b] < end {
					n.bankBusy[ch][b] = end
				}
				if n.colReady[ch][b] < end {
					n.colReady[ch][b] = end
				}
			}
			n.nextRefresh[ch] += t.TREFI
			n.refreshes++
		}
	}
	var colIssue float64
	if n.openRow[ch][bank] != row {
		actStart := at
		if b := n.bankBusy[ch][bank]; b > actStart {
			actStart = b
		}
		if n.openRow[ch][bank] >= 0 {
			actStart += t.TRP
		}
		colIssue = actStart + t.TRCD
		n.openRow[ch][bank] = row
	} else {
		colIssue = at
		if r := n.colReady[ch][bank]; r > colIssue {
			colIssue = r
		}
	}
	dataStart := colIssue + t.TCL
	if f := n.busFree[ch]; f > dataStart {
		dataStart = f
	}
	finish := dataStart + t.TBurst
	n.busFree[ch] = finish
	n.bankBusy[ch][bank] = finish
	n.colReady[ch][bank] = dataStart - t.TCL + t.TBurst
	return finish
}

// TestSoAMatchesNestedReference drives seeded random traffic — bursty
// arrivals, refresh enabled — through the flattened device and the
// nested-slice reference and demands bit-identical completion times.
// This is the exactness argument for the SoA layout change: only the
// indexing moved, never a float operation.
func TestSoAMatchesNestedReference(t *testing.T) {
	g := geom.Default()
	for _, tm := range []Timing{DefaultTiming(), DefaultTiming().WithRefresh(), DefaultTiming().WithRefresh().Scale(3)} {
		d := New(g, tm)
		n := newNested(g, tm)
		rng := rand.New(rand.NewSource(99))
		var at float64
		for i := 0; i < 50_000; i++ {
			ha := geom.HardwareAddress{
				Channel: rng.Intn(g.Channels),
				Bank:    rng.Intn(g.Banks),
				Row:     rng.Intn(256),
				Column:  rng.Intn(g.LinesPerRow()),
			}
			if rng.Intn(16) == 0 {
				at += float64(rng.Intn(5000)) // idle gap: exercises refresh catch-up
			}
			got, want := d.Access(at, ha), n.access(at, ha)
			if got != want {
				t.Fatalf("ref %d (timing %+v): finish %v, want %v", i, tm, got, want)
			}
		}
		if d.Stats().Refreshes != n.refreshes {
			t.Fatalf("refresh count %d, want %d", d.Stats().Refreshes, n.refreshes)
		}
		if err := d.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAccessLineMatchesDecodeThenAccess pins the fused path to the
// two-step one.
func TestAccessLineMatchesDecodeThenAccess(t *testing.T) {
	g := geom.Default()
	a := New(g, DefaultTiming().WithRefresh())
	b := New(g, DefaultTiming().WithRefresh())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10_000; i++ {
		l := geom.LineAddr(rng.Uint64() % g.TotalLines())
		at := float64(i) * 3
		if got, want := a.AccessLine(at, l), b.Access(at, g.Decode(l)); got != want {
			t.Fatalf("line %v: fused %v, two-step %v", l, got, want)
		}
	}
}
