package mapping

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func randPerm(r *rand.Rand) []int { return r.Perm(geom.OffsetBits) }

// refShuffle is the per-bit crossbar loop the compiled tables replace:
// HA bit i takes PA bit perm[i].
func refShuffle(perm []int, off uint32) uint32 {
	var out uint32
	for i := 0; i < geom.OffsetBits; i++ {
		out |= (off >> perm[i] & 1) << i
	}
	return out
}

// applyGF2 is the row-by-row matrix product the compiled tables
// replace: HA bit i is the parity of the PA bits in rows[i].
func applyGF2(rows [geom.OffsetBits]uint32, off uint32) uint32 {
	var out uint32
	for i := 0; i < geom.OffsetBits; i++ {
		out |= uint32(bits.OnesCount32(rows[i]&off)&1) << i
	}
	return out
}

func TestIdentityRoundTrip(t *testing.T) {
	m := Identity{}.Linear()
	inv := m.Inverse()
	f := func(off uint32) bool {
		off &= offMask
		return inv.MapOffset(m.MapOffset(off)) == off && m.MapOffset(off) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleIsBijection(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := randPerm(r)
		s := MustShuffle(perm, "t")
		inv := s.Inverse()
		seen := make([]bool, 1<<geom.OffsetBits)
		for off := uint32(0); off < 1<<geom.OffsetBits; off++ {
			m := s.MapOffset(off)
			if want := refShuffle(perm, off); m != want {
				t.Fatalf("trial %d: offset %#x: compiled %#x, loop %#x", trial, off, m, want)
			}
			if seen[m] {
				t.Fatalf("trial %d: offset %#x collides", trial, off)
			}
			seen[m] = true
			if inv.MapOffset(m) != off {
				t.Fatalf("trial %d: unmap(map(%#x)) = %#x", trial, off, inv.MapOffset(m))
			}
		}
	}
}

func TestShuffleRejectsInvalidPerms(t *testing.T) {
	if _, err := NewShuffle([]int{0, 1}, ""); err == nil {
		t.Error("short permutation accepted")
	}
	bad := make([]int, geom.OffsetBits)
	for i := range bad {
		bad[i] = 0 // all map to bit 0
	}
	if _, err := NewShuffle(bad, ""); err == nil {
		t.Error("non-bijective permutation accepted")
	}
	bad[1] = geom.OffsetBits // out of range
	if _, err := NewShuffle(bad, ""); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

// TestShufflePermAccessor checks that a shuffle's matrix is its
// permutation: row i selects exactly PA bit perm[i].
func TestShufflePermAccessor(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := randPerm(r)
	got := MustShuffle(p, "t").Rows()
	for i := range p {
		if got[i] != 1<<p[i] {
			t.Fatalf("Rows()[%d] = %#x, want PA bit %d", i, got[i], p[i])
		}
	}
}

// TestIdentityShuffleMatchesIdentity checks that Identity lowers to the
// identity permutation named DM and moves no offset.
func TestIdentityShuffleMatchesIdentity(t *testing.T) {
	s := Identity{}.Linear()
	if s.Name() != "DM" {
		t.Fatalf("identity is named %q, want DM", s.Name())
	}
	perm := make([]int, geom.OffsetBits)
	for i := range perm {
		perm[i] = i
	}
	if s.Rows() != MustShuffle(perm, "DM").Rows() {
		t.Fatalf("identity rows %#x", s.Rows())
	}
	for off := uint32(0); off < 1<<geom.OffsetBits; off++ {
		if s.MapOffset(off) != off {
			t.Fatalf("identity shuffle moved %#x", off)
		}
	}
}

func TestXORHashRoundTrip(t *testing.T) {
	h := DefaultXORHash()
	inv := h.Inverse()
	f := func(off uint32) bool {
		off &= offMask
		return inv.MapOffset(h.MapOffset(off)) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXORHashRejectsSingular(t *testing.T) {
	rows := make([]uint32, geom.OffsetBits)
	for i := range rows {
		rows[i] = 1 // every HA bit = PA bit 0: singular
	}
	if _, err := NewXORHash(rows, ""); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestXORHashIsBijectionExhaustive(t *testing.T) {
	h := DefaultXORHash()
	seen := make([]bool, 1<<geom.OffsetBits)
	for off := uint32(0); off < 1<<geom.OffsetBits; off++ {
		m := h.MapOffset(off)
		if want := applyGF2(h.Rows(), off); m != want {
			t.Fatalf("offset %#x: compiled %#x, matrix product %#x", off, m, want)
		}
		if seen[m] {
			t.Fatalf("offset %#x collides", off)
		}
		seen[m] = true
	}
}

func TestMapPreservesChunkNumber(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	maps := []*Linear{Identity{}.Linear(), MustShuffle(randPerm(r), "s"), DefaultXORHash()}
	f := func(raw uint64) bool {
		l := geom.LineAddr(raw % geom.Default().TotalLines())
		for _, m := range maps {
			if m.Map(l).Chunk() != l.Chunk() {
				return false
			}
			if m.Inverse().Map(m.Map(l)) != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeBFRVStreaming(t *testing.T) {
	// A streaming trace flips bit 0 on every access, bit 1 on every
	// second access, etc.
	trace := make([]geom.LineAddr, 1024)
	for i := range trace {
		trace[i] = geom.LineAddr(i)
	}
	v := ComputeBFRV(trace)
	if v[0] != 1.0 {
		t.Errorf("bit 0 flip rate = %v, want 1.0", v[0])
	}
	if v[1] <= v[2] || v[0] <= v[1] {
		t.Errorf("flip rates not monotonically decreasing: %v", v[:4])
	}
}

func TestComputeBFRVStride(t *testing.T) {
	// Stride 16 (lines): bits below 4 never flip; bit 4 flips always.
	trace := make([]geom.LineAddr, 512)
	for i := range trace {
		trace[i] = geom.LineAddr(i * 16)
	}
	v := ComputeBFRV(trace)
	for b := 0; b < 4; b++ {
		if v[b] != 0 {
			t.Errorf("bit %d flip rate = %v, want 0 for stride 16", b, v[b])
		}
	}
	if v[4] != 1.0 {
		t.Errorf("bit 4 flip rate = %v, want 1.0 for stride 16", v[4])
	}
}

func TestComputeBFRVDegenerate(t *testing.T) {
	if v := ComputeBFRV(nil); v != (BFRV{}) {
		t.Error("nil trace should give zero BFRV")
	}
	if v := ComputeBFRV([]geom.LineAddr{42}); v != (BFRV{}) {
		t.Error("single-access trace should give zero BFRV")
	}
}

func TestBFRVArithmetic(t *testing.T) {
	var a, b BFRV
	a[0], a[1] = 1, 2
	b[0], b[1] = 3, 4
	a.Add(b)
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("Add wrong: %v", a[:2])
	}
	a.Scale(0.5)
	if a[0] != 2 || a[1] != 3 {
		t.Fatalf("Scale wrong: %v", a[:2])
	}
}

func TestFromBFRVStreamingYieldsIdentity(t *testing.T) {
	trace := make([]geom.LineAddr, 4096)
	for i := range trace {
		trace[i] = geom.LineAddr(i)
	}
	s := FromBFRV(ComputeBFRV(trace), geom.Default(), "")
	if s.Rows() != (Identity{}).Linear().Rows() {
		t.Fatalf("streaming trace should produce identity mapping, got rows %#x", s.Rows())
	}
}

func TestFromBFRVStride16MovesChannelBits(t *testing.T) {
	// With stride 16 the flipping bits are 4.. so channel (HA bits 0-4)
	// must be fed from PA bits >= 4.
	trace := make([]geom.LineAddr, 4096)
	for i := range trace {
		trace[i] = geom.LineAddr(i * 16)
	}
	rows := FromBFRV(ComputeBFRV(trace), geom.Default(), "").Rows()
	for i := 0; i < 5; i++ {
		if rows[i] < 1<<4 {
			t.Fatalf("channel HA bit %d fed from dead PA bits %#x", i, rows[i])
		}
	}
}

func TestForStrideSpreadsAccesses(t *testing.T) {
	g := geom.Default()
	for _, stride := range []int{1, 2, 4, 8, 16, 32, 64} {
		m := ForStride(stride, g)
		channels := make(map[int]bool)
		for i := 0; i < 256; i++ {
			l := geom.LineAddr(i * stride)
			ha := g.Decode(m.Map(l))
			channels[ha.Channel] = true
		}
		if len(channels) < g.Channels {
			t.Errorf("stride %d: only %d/%d channels used with tailored mapping",
				stride, len(channels), g.Channels)
		}
	}
}

func TestForStrideDegenerateInputs(t *testing.T) {
	g := geom.Default()
	if m := ForStride(0, g); m == nil {
		t.Fatal("stride 0 should clamp, not fail")
	}
	if m := ForStride(1<<20, g); m == nil {
		t.Fatal("huge stride should clamp, not fail")
	}
}

func TestIdentityUnderStrideCausesContention(t *testing.T) {
	// Sanity-check the motivating problem (Fig 2/3): the default mapping
	// under stride 32 uses a single channel.
	g := geom.Default()
	m := Identity{}.Linear()
	channels := make(map[int]bool)
	for i := 0; i < 256; i++ {
		l := geom.LineAddr(i * 32)
		ha := g.Decode(m.Map(l))
		channels[ha.Channel] = true
	}
	if len(channels) != 1 {
		t.Fatalf("stride 32 under DM used %d channels, want 1", len(channels))
	}
}

// FuzzShuffleRoundTrip drives random permutations and offsets through
// the crossbar transform: the compiled tables must agree with the
// per-bit shuffle loop on every input, including bits above the
// offset, and the inverse must undo them.
func FuzzShuffleRoundTrip(f *testing.F) {
	f.Add(int64(1), uint32(0x1234))
	f.Add(int64(99), uint32(0x7fff))
	f.Fuzz(func(t *testing.T, seed int64, off uint32) {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(geom.OffsetBits)
		s := MustShuffle(perm, "fuzz")
		got := s.MapOffset(off)
		off &= offMask
		if want := refShuffle(perm, off); got != want {
			t.Fatalf("perm %v offset %#x: compiled %#x, loop %#x", perm, off, got, want)
		}
		if back := s.Inverse().MapOffset(got); back != off {
			t.Fatalf("roundtrip %#x -> %#x", off, back)
		}
	})
}

// FuzzXORHashRoundTrip fuzzes random invertible-or-not row masks: either
// construction fails, or the mapping must round-trip.
func FuzzXORHashRoundTrip(f *testing.F) {
	f.Add(int64(3), uint32(42))
	f.Fuzz(func(t *testing.T, seed int64, off uint32) {
		r := rand.New(rand.NewSource(seed))
		rows := make([]uint32, geom.OffsetBits)
		for i := range rows {
			rows[i] = 1<<i | uint32(r.Intn(1<<geom.OffsetBits))&offMask
		}
		h, err := NewXORHash(rows, "fuzz")
		if err != nil {
			return // singular matrices are legitimately rejected
		}
		got := h.MapOffset(off)
		off &= offMask
		if want := applyGF2(h.Rows(), off); got != want {
			t.Fatalf("rows %#x offset %#x: compiled %#x, matrix product %#x", rows, off, got, want)
		}
		if back := h.Inverse().MapOffset(got); back != off {
			t.Fatalf("roundtrip %#x -> %#x", off, back)
		}
	})
}
