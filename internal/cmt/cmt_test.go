package cmt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/amu"
	"repro/internal/geom"
	"repro/internal/mapping"
)

func testConfig(t *testing.T, stride int) amu.Config {
	t.Helper()
	cfg, err := amu.ConfigOf(mapping.ForStride(stride, geom.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestNewBootsWithDefaultMapping(t *testing.T) {
	tb := New(16)
	cfg, err := tb.Lookup(3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != amu.Identity() {
		t.Fatal("fresh table must serve the identity mapping")
	}
	if tb.LiveMappings() != 1 {
		t.Fatalf("LiveMappings = %d, want 1", tb.LiveMappings())
	}
}

func TestInstallBindLookup(t *testing.T) {
	tb := New(64)
	cfg := testConfig(t, 16)
	idx, err := tb.AllocMappingIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BindChunk(10, idx); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Lookup(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatal("lookup returned wrong config")
	}
	// Unbound chunks still see the default.
	got, _ = tb.Lookup(11)
	if got != amu.Identity() {
		t.Fatal("unbound chunk lost the default mapping")
	}
}

func TestInstallRejectsBadInputs(t *testing.T) {
	tb := New(8)
	var bad amu.Config
	if _, err := tb.AllocMappingIndex(bad); err == nil {
		t.Error("invalid crossbar config accepted")
	}
	if tb.LiveMappings() != 1 || tb.WriteCount() != 0 {
		t.Errorf("rejected install changed the table: %d live, %d writes", tb.LiveMappings(), tb.WriteCount())
	}
}

func TestBindRejectsBadInputs(t *testing.T) {
	tb := New(8)
	if err := tb.BindChunk(8, 0); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if err := tb.BindChunk(-1, 0); err == nil {
		t.Error("negative chunk accepted")
	}
	if err := tb.BindChunk(0, 7); err == nil {
		t.Error("bind to uninstalled mapping accepted")
	}
	if err := tb.BindChunk(0, MaxMappings); err == nil {
		t.Error("bind to out-of-range index accepted")
	}
}

func TestAllocMappingIndexExhaustion(t *testing.T) {
	tb := New(8)
	cfg := testConfig(t, 2)
	got := make(map[int]bool)
	for i := 1; i < MaxMappings; i++ {
		idx, err := tb.AllocMappingIndex(cfg)
		if err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
		if got[idx] {
			t.Fatalf("index %d handed out twice", idx)
		}
		got[idx] = true
	}
	if _, err := tb.AllocMappingIndex(cfg); err == nil {
		t.Fatal("alloc beyond 256 slots succeeded")
	}
}

func TestTwoLevelEqualsFlatReference(t *testing.T) {
	// Invariant 6 from DESIGN.md: the two-level lookup must agree with a
	// flat chunk→config table maintained in parallel.
	tb := New(128)
	flat := make([]amu.Config, 128)
	for i := range flat {
		flat[i] = amu.Identity()
	}
	strides := []int{1, 2, 4, 8, 16, 32}
	idxOf := make(map[int]int)
	for i, s := range strides {
		idx, err := tb.AllocMappingIndex(testConfig(t, s))
		if err != nil {
			t.Fatal(err)
		}
		idxOf[i] = idx
	}
	for c := 0; c < 128; c++ {
		which := c % len(strides)
		if err := tb.BindChunk(c, idxOf[which]); err != nil {
			t.Fatal(err)
		}
		flat[c] = testConfig(t, strides[which])
	}
	for c := 0; c < 128; c++ {
		got, err := tb.Lookup(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != flat[c] {
			t.Fatalf("chunk %d: two-level lookup disagrees with flat reference", c)
		}
	}
}

func TestStorageArithmeticMatchesPaper(t *testing.T) {
	// Paper §5.3: 128 GB / 2 MB chunks = 64k entries; two-level total
	// 64k×8 + 256×60 bits = 67.94 KB; flat = 491 KB.
	s := StorageBits(64 * 1024)
	if s.Level1Bits != 64*1024*8 {
		t.Errorf("L1 bits = %d", s.Level1Bits)
	}
	if s.Level2Bits != 256*60 {
		t.Errorf("L2 bits = %d", s.Level2Bits)
	}
	// The paper quotes 67.94 KB but its own formula (64k×8 b + 256×60 b)
	// evaluates to 67.46 KB; we assert the formula's exact result and
	// stay within the paper's rounding band (67–68 KB across §1/§4/§5.3).
	if math.Abs(s.TotalKB-67.456) > 0.01 {
		t.Errorf("two-level KB = %.3f, want 67.456", s.TotalKB)
	}
	if s.TotalKB < 67 || s.TotalKB > 68 {
		t.Errorf("two-level KB = %.2f outside the paper's 67-68 KB band", s.TotalKB)
	}
	if math.Abs(s.FlatKB-491) > 1 {
		t.Errorf("flat KB = %.0f, want ≈491", s.FlatKB)
	}
	if s.String() == "" {
		t.Error("empty storage summary")
	}
}

func TestStorageForPrototype(t *testing.T) {
	// 8 GB prototype: 4096 chunks → about 6 KB of CMT.
	tb := New(geom.Default().Chunks())
	s := tb.Storage()
	if s.Chunks != 4096 {
		t.Fatalf("chunks = %d", s.Chunks)
	}
	if s.TotalKB > 10 {
		t.Fatalf("prototype CMT unexpectedly large: %.2f KB", s.TotalKB)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tb := New(256)
	idx, err := tb.AllocMappingIndex(testConfig(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(base int) {
			defer wg.Done()
			for c := base; c < 256; c += 4 {
				if err := tb.BindChunk(c, idx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for c := 0; c < 256; c++ {
				if _, err := tb.Lookup(c); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
