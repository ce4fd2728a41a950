package amu

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// randConfig builds a random valid crossbar setting.
func randConfig(r *rand.Rand) Config {
	var c Config
	for i, p := range r.Perm(Width) {
		c[i] = uint8(p)
	}
	return c
}

// refTranslate is the crossbar as wired: output bit i takes input bit
// cfg[i], one switch per column. The compiled tables must match it.
func refTranslate(cfg Config, l geom.LineAddr) geom.LineAddr {
	off := l.Offset()
	var out uint32
	for i := 0; i < Width; i++ {
		out |= (off >> cfg[i] & 1) << i
	}
	return geom.Join(l.Chunk(), out)
}

// refInvert runs the crossbar backwards (HA→PA).
func refInvert(cfg Config, l geom.LineAddr) geom.LineAddr {
	off := l.Offset()
	var out uint32
	for i := 0; i < Width; i++ {
		out |= (off >> i & 1) << cfg[i]
	}
	return geom.Join(l.Chunk(), out)
}

// TestCompiledMatchesTranslate proves the table-lowered form computes
// exactly the per-bit shuffle, for every offset under random
// permutations and for the identity.
func TestCompiledMatchesTranslate(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	configs := []Config{Identity()}
	for i := 0; i < 20; i++ {
		configs = append(configs, randConfig(r))
	}
	for ci, cfg := range configs {
		m := mustLinear(t, cfg)
		for off := uint32(0); off < 1<<Width; off++ {
			l := geom.Join(3, off)
			want := refTranslate(cfg, l)
			if got := m.Map(l); got != want {
				t.Fatalf("config %d offset %#x: compiled %#x, loop %#x", ci, off, got, want)
			}
		}
	}
}

// TestCompiledMemo checks the AMU shares one compiled mapping per
// distinct configuration and rejects an invalid one.
func TestCompiledMemo(t *testing.T) {
	a := New(1)
	cfg := Identity()
	m1, err := a.Linear(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := a.Linear(cfg)
	if m1 != m2 {
		t.Fatal("Linear not memoized")
	}
	if m1.Rows() != (mapping.Identity{}).Linear().Rows() {
		t.Fatalf("identity config lowered to rows %#x", m1.Rows())
	}
	cfg[0] = cfg[1]
	if _, err := a.Linear(cfg); err == nil {
		t.Fatal("invalid config lowered")
	}
}

// BenchmarkAMUTranslate measures the per-bit crossbar loop — the
// baseline the compiled path is judged against with benchstat.
func BenchmarkAMUTranslate(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cfg := randConfig(r)
	var sink geom.LineAddr
	for i := 0; i < b.N; i++ {
		sink = refTranslate(cfg, geom.LineAddr(i))
	}
	_ = sink
}

// BenchmarkAMUTranslateCompiled measures the table-lowered hot path the
// memory controller uses per access.
func BenchmarkAMUTranslateCompiled(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m, err := New(8).Linear(randConfig(r))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink geom.LineAddr
	for i := 0; i < b.N; i++ {
		sink = m.Map(geom.LineAddr(i))
	}
	_ = sink
}

// BenchmarkCompile measures the one-time lowering cost per mapping.
func BenchmarkCompile(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cfg := randConfig(r)
	var sink *mapping.Linear
	for i := 0; i < b.N; i++ {
		sink, _ = cfg.Linear("b")
	}
	_ = sink
}
