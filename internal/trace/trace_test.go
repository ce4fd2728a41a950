package trace

import (
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/vm"
)

func TestVIDStablePerSite(t *testing.T) {
	c := NewCollector(0)
	a := c.VIDOf("foo.c:10")
	b := c.VIDOf("bar.c:20")
	if a == b {
		t.Fatal("distinct sites share a VID")
	}
	if c.VIDOf("foo.c:10") != a {
		t.Fatal("VID not stable")
	}
	if len(c.Variables()) != 2 {
		t.Fatalf("variables = %d", len(c.Variables()))
	}
}

func TestAttributeIntervalLookup(t *testing.T) {
	c := NewCollector(0)
	c.NoteAlloc("a", 0x1000, 0x100)
	c.NoteAlloc("b", 0x3000, 0x100)
	c.NoteAlloc("a", 0x2000, 0x100) // same variable, second block

	cases := []struct {
		va   vm.VA
		want string
	}{
		{0x1000, "a"}, {0x10ff, "a"}, {0x2000, "a"}, {0x3050, "b"},
	}
	for _, tc := range cases {
		vid := c.Attribute(tc.va)
		if vid < 0 || c.Variables()[vid].Site != tc.want {
			t.Errorf("Attribute(%#x) = %d, want site %q", uint64(tc.va), vid, tc.want)
		}
	}
	for _, va := range []vm.VA{0xfff, 0x1100, 0x2abc, 0x4000} {
		if vid := c.Attribute(va); vid >= 0 {
			t.Errorf("Attribute(%#x) = %d, want -1", uint64(va), vid)
		}
	}
}

func TestRecordBuildsOnlineBFRV(t *testing.T) {
	c := NewCollector(0)
	c.NoteAlloc("streamvar", 0x10000, 1<<20)
	// Stream at stride 1 line within the variable.
	for i := 0; i < 1024; i++ {
		c.Record(Access{VA: 0x10000 + vm.VA(i*geom.LineBytes), PA: geom.LineAddr(i)})
	}
	v := c.Variables()[0]
	if v.Refs != 1024 {
		t.Fatalf("refs = %d", v.Refs)
	}
	bfrv := v.BFRV()
	if bfrv[0] != 1.0 {
		t.Fatalf("streaming bit-0 flip rate = %v", bfrv[0])
	}
	if bfrv[5] >= bfrv[0] {
		t.Fatal("flip rates not decreasing for streaming")
	}
}

func TestRecordUnattributed(t *testing.T) {
	c := NewCollector(0)
	c.Record(Access{VA: 0xdead, PA: 1})
	if c.Unattributed != 1 {
		t.Fatalf("Unattributed = %d", c.Unattributed)
	}
	if c.TotalRefs() != 0 {
		t.Fatal("unattributed access counted as a reference")
	}
}

func TestDeltaSequenceBounded(t *testing.T) {
	c := NewCollector(8)
	c.NoteAlloc("v", 0, 1<<20)
	for i := 0; i < 100; i++ {
		c.Record(Access{VA: vm.VA(i * geom.LineBytes), PA: geom.LineAddr(i)})
	}
	d := c.Deltas()
	if len(d) != 8 {
		t.Fatalf("deltas = %d, want cap 8", len(d))
	}
	// Consecutive line addresses i-1 ^ i: first pair 0^1 = 1.
	if d[0].Delta != 1 || d[0].VID != 0 {
		t.Fatalf("first delta = %+v", d[0])
	}
}

func TestPeakTracksHighWaterMark(t *testing.T) {
	c := NewCollector(0)
	c.NoteAlloc("v", 0x1000, 100)
	c.NoteAlloc("w", 0x5000, 70)
	c.NoteAlloc("v", 0x2000, 200)
	c.NoteAlloc("v", 0x3000, 50)
	vars := c.Variables()
	if vars[0].PeakBytes != 350 || vars[1].PeakBytes != 70 {
		t.Fatalf("peaks = %d, %d, want 350 (every block of v) and 70", vars[0].PeakBytes, vars[1].PeakBytes)
	}
}

// TestReserveTrimKeepsOnlyTheSequence: Reserve never sets aside more
// than the retention bound, and Trim leaves no spare capacity for the
// profile memo to keep alive, not even an empty sequence's array.
func TestReserveTrimKeepsOnlyTheSequence(t *testing.T) {
	c := NewCollector(100)
	c.NoteAlloc("v", 0, 1<<20)
	c.Reserve(1 << 20)
	if cap(c.deltas) < 100 || cap(c.deltas) > 128 {
		t.Fatalf("Reserve(1M) with a bound of 100 left cap %d", cap(c.deltas))
	}
	for i := 0; i < 11; i++ {
		c.Record(Access{VA: vm.VA(i * geom.LineBytes), PA: geom.LineAddr(i)})
	}
	c.Trim()
	if len(c.Deltas()) != 10 || cap(c.deltas) != 10 {
		t.Fatalf("after Trim: len %d cap %d, want 10 and 10", len(c.Deltas()), cap(c.deltas))
	}
	empty := NewCollector(0)
	empty.Reserve(1000)
	empty.Trim()
	if empty.deltas != nil {
		t.Fatalf("Trim of an empty sequence kept cap %d", cap(empty.deltas))
	}
}

// TestDeltaSampleIsEightBytes pins the (Δ, VID) pair at eight bytes on
// every architecture: the profile memo keeps up to a million per pass.
func TestDeltaSampleIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(DeltaSample{}); got != 8 {
		t.Fatalf("DeltaSample is %d bytes, want 8", got)
	}
}
