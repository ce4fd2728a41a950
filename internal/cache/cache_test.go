package cache

import (
	"testing"

	"repro/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(1<<20, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(3*geom.LineBytes, 2); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(256*geom.LineBytes, 256); err == nil {
		t.Error("more ways than the per-set fill count holds accepted")
	}
	if _, err := New(255*geom.LineBytes, 255); err != nil {
		t.Errorf("255-way fully associative cache rejected: %v", err)
	}
	c, err := New(1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.SizeBytes() != 1<<20 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustNew(64*geom.LineBytes, 4)
	if c.Access(42) {
		t.Fatal("cold access hit")
	}
	if !c.Access(42) {
		t.Fatal("second access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: lines 0,2,4 map to set 0.
	c := MustNew(4*geom.LineBytes, 2)
	c.Access(0)
	c.Access(2)
	c.Access(0) // refresh 0; 2 becomes LRU
	c.Access(4) // evicts 2
	if !c.Access(0) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(2) {
		t.Fatal("LRU line survived eviction")
	}
}

func TestWorkingSetBehavior(t *testing.T) {
	c := MustNew(256*geom.LineBytes, 8)
	// A working set that fits: second pass all hits.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 256; i++ {
			c.Access(geom.LineAddr(i))
		}
	}
	if c.Hits() != 256 {
		t.Fatalf("fitting working set: hits = %d, want 256", c.Hits())
	}
	c.Reset()
	// A streaming working set 4x the cache: second pass still misses.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 1024; i++ {
			c.Access(geom.LineAddr(i))
		}
	}
	if c.HitRate() > 0.01 {
		t.Fatalf("streaming set hit rate = %v, want ~0", c.HitRate())
	}
}

func TestReset(t *testing.T) {
	c := MustNew(64*geom.LineBytes, 4)
	c.Access(1)
	c.Access(1)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Fatal("counters survived reset")
	}
	if c.Access(1) {
		t.Fatal("line survived reset")
	}
}
