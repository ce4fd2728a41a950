package rowguard

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mapping"
)

func TestIdentityGuardOverhead(t *testing.T) {
	// Under the identity mapping a chunk's 16 row-low values partition
	// its 512 pages evenly: the two boundary rows cost 2/16 = 12.5 %.
	m := mapping.Identity{}.Linear()
	g := geom.Default()
	if got := Overhead(m, g); got != 0.125 {
		t.Fatalf("identity guard overhead = %v, want 0.125", got)
	}
	if !Isolated(m, g) {
		t.Fatal("identity guard set does not isolate")
	}
}

func TestGuardedPagesIdentityShape(t *testing.T) {
	g := geom.Default()
	guarded := GuardedPages(mapping.Identity{}.Linear(), g)
	if len(guarded) != geom.PagesPerChunk {
		t.Fatalf("len = %d", len(guarded))
	}
	// Identity: row-low = offset bits 11-14; a page holds 64 lines =
	// bits 0-5, so pages 0-31 are row-low 0 (guarded) and 480-511 are
	// row-low 15 (guarded).
	for p := 0; p < 32; p++ {
		if !guarded[p] {
			t.Fatalf("page %d should be guarded (row-low 0)", p)
		}
	}
	for p := 32; p < 480; p++ {
		if guarded[p] {
			t.Fatalf("page %d should be free", p)
		}
	}
	for p := 480; p < 512; p++ {
		if !guarded[p] {
			t.Fatalf("page %d should be guarded (row-low 15)", p)
		}
	}
}

func TestArbitraryShufflesRemainIsolated(t *testing.T) {
	// The guard computation must isolate any crossbar setting, including
	// ones that scatter a page's lines across many rows.
	r := rand.New(rand.NewSource(3))
	g := geom.Default()
	for trial := 0; trial < 10; trial++ {
		perm := r.Perm(geom.OffsetBits)
		if !Isolated(mapping.MustShuffle(perm, "t"), g) {
			t.Fatalf("trial %d: guard set not isolating for perm %v", trial, perm)
		}
	}
}

func TestOverheadDependsOnMapping(t *testing.T) {
	// A mapping that feeds row-low from low PA bits guards essentially
	// every page (each page's lines scatter across all rows) — the
	// documented cost of combining odd mappings with isolation.
	// Rotation by 4 feeds row-low from PA bits 0-3, which vary inside
	// every page, so every page touches boundary rows.
	perm := make([]int, geom.OffsetBits)
	for i := range perm {
		perm[i] = (i + 4) % geom.OffsetBits
	}
	s := mapping.MustShuffle(perm, "rot")
	over := Overhead(s, geom.Default())
	if over <= 0.125 {
		t.Fatalf("scattering mapping overhead = %v, expected above identity's 0.125", over)
	}
}
