package amu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// mustLinear lowers a configuration the test knows to be valid.
func mustLinear(t testing.TB, cfg Config) *mapping.Linear {
	t.Helper()
	m, err := cfg.Linear("t")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigRoundTripsThroughShuffle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		s := mapping.MustShuffle(r.Perm(Width), "t")
		cfg, err := ConfigOf(s)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Valid() {
			t.Fatal("config from valid shuffle must be valid")
		}
		if back := mustLinear(t, cfg); back.Rows() != s.Rows() {
			t.Fatalf("rows %#x came back as %#x", s.Rows(), back.Rows())
		}
	}
}

// TestConfigOfRejectsXORHash checks that only bit shuffles serialize to
// the crossbar: HM XORs several PA bits into one HA bit, which a
// crossbar column with one closed switch cannot do.
func TestConfigOfRejectsXORHash(t *testing.T) {
	if _, err := ConfigOf(mapping.DefaultXORHash()); err == nil {
		t.Fatal("XOR hash serialized to a crossbar setting")
	}
}

// TestConfigOfRoundTripsSelectorMaps round-trips every mapping the
// selectors and the stride closed form can produce through the
// crossbar setting and back.
func TestConfigOfRoundTripsSelectorMaps(t *testing.T) {
	g := geom.Default()
	var maps []*mapping.Linear
	for s := 0; s <= Width; s++ {
		maps = append(maps, mapping.ForStride(1<<s, g))
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		var v mapping.BFRV
		for i := range v {
			v[i] = float64(r.Intn(4)) / 4 // ties exercise the tie-break
		}
		maps = append(maps, mapping.FromBFRV(v, g, "t"))
	}
	for _, m := range maps {
		cfg, err := ConfigOf(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !cfg.Valid() {
			t.Fatalf("%s: invalid config %v", m.Name(), cfg)
		}
		if back := mustLinear(t, cfg); back.Rows() != m.Rows() {
			t.Fatalf("%s: rows %#x came back as %#x", m.Name(), m.Rows(), back.Rows())
		}
	}
}

func TestConfigValidRejectsBadSettings(t *testing.T) {
	c := Identity()
	c[3] = c[4] // two columns select the same input
	if c.Valid() {
		t.Error("duplicate select accepted")
	}
	if _, err := c.Linear("t"); err == nil {
		t.Error("duplicate select lowered")
	}
	c = Identity()
	c[0] = Width // out of range
	if c.Valid() {
		t.Error("out-of-range select accepted")
	}
	if _, err := c.Linear("t"); err == nil {
		t.Error("out-of-range select lowered")
	}
}

func TestTranslateMatchesMapping(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := mapping.MustShuffle(r.Perm(Width), "t")
	cfg, err := ConfigOf(s)
	if err != nil {
		t.Fatal(err)
	}
	m := mustLinear(t, cfg)
	f := func(raw uint64) bool {
		l := geom.LineAddr(raw % geom.Default().TotalLines())
		return m.Map(l) == s.Map(l) && m.Map(l) == refTranslate(cfg, l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateInvertRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := randConfig(r)
	m := mustLinear(t, cfg)
	inv := m.Inverse()
	f := func(raw uint64) bool {
		l := geom.LineAddr(raw % geom.Default().TotalLines())
		ha := m.Map(l)
		return inv.Map(ha) == l && refInvert(cfg, ha) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslatePreservesChunk(t *testing.T) {
	m := mapping.ForStride(16, geom.Default())
	for _, chunk := range []int{0, 1, 100, 4095} {
		l := geom.Join(chunk, 0x1234)
		if got := m.Map(l).Chunk(); got != chunk {
			t.Fatalf("chunk %d translated to %d", chunk, got)
		}
	}
}

func TestCostModel(t *testing.T) {
	c := New(8).Cost()
	if c.SwitchesPerUnit != Width*Width {
		t.Errorf("switches per unit = %d, want %d", c.SwitchesPerUnit, Width*Width)
	}
	if c.TotalSwitches != 8*Width*Width {
		t.Errorf("total switches = %d", c.TotalSwitches)
	}
	if c.ConfigBits != 60 {
		t.Errorf("config bits = %d, want 60 (paper §5.3)", c.ConfigBits)
	}
	if c.String() == "" {
		t.Error("cost string empty")
	}
	if minimal := New(0); minimal.Cost().Replicas != 1 {
		t.Error("replica clamp failed")
	}
}
