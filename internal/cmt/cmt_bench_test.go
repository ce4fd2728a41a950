package cmt

import (
	"testing"

	"repro/internal/amu"
	"repro/internal/geom"
	"repro/internal/mapping"
)

// benchTable builds a table with a non-default mapping bound to half the
// chunks, approximating a live SDAM system.
func benchTable(b *testing.B) *Table {
	b.Helper()
	t := New(4096)
	cfg, err := amu.ConfigOf(mapping.ForStride(16, geom.Default()))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := t.AllocMappingIndex(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < t.Chunks(); c += 2 {
		if err := t.BindChunk(c, idx); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkCMTLookup measures the locked two-level lookup the controller
// pays on a per-chunk cache miss (and paid on every access before the
// memctrl memoization).
func BenchmarkCMTLookup(b *testing.B) {
	t := benchTable(b)
	n := t.Chunks()
	b.ResetTimer()
	var sink amu.Config
	for i := 0; i < b.N; i++ {
		cfg, err := t.Lookup(i % n)
		if err != nil {
			b.Fatal(err)
		}
		sink = cfg
	}
	_ = sink
}

// BenchmarkCMTLookupParallel measures reader-side scaling of the RWMutex
// path under concurrent controllers.
func BenchmarkCMTLookupParallel(b *testing.B) {
	t := benchTable(b)
	n := t.Chunks()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := t.Lookup(i % n); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
