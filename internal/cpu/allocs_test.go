package cpu

import (
	"testing"

	"repro/internal/geom"
)

// opsPerRun is how many times each pinned operation runs inside one
// testing.AllocsPerRun run. AllocsPerRun rounds a run's average down
// to whole allocations, so at one operation per run a slice that grows
// by amortized doubling would read 0; at a thousand per run its
// reallocations land inside the few measured runs and read ≥ 1.
const opsPerRun = 1000

// allocsPerOpRun reports the allocations of opsPerRun calls of op,
// averaged over four runs after AllocsPerRun's warm-up run.
func allocsPerOpRun(op func()) float64 {
	return testing.AllocsPerRun(4, func() {
		for i := 0; i < opsPerRun; i++ {
			op()
		}
	})
}

// TestCoreHeapZeroAllocs pins the engine's per-reference heap work —
// canSkip, pop and push on a heap sized for every core — at zero
// allocations.
func TestCoreHeapZeroAllocs(t *testing.T) {
	const cores = 8
	h := newCoreHeap(cores)
	for i := 0; i < cores; i++ {
		h.push(heapSlot{nextReady: float64(i), core: i})
	}
	key, skips := float64(cores), 0
	if n := allocsPerOpRun(func() {
		s := h.pop()
		key += 0.5
		s.nextReady = key
		if h.canSkip(key) {
			skips++
		}
		h.push(s)
	}); n != 0 {
		t.Errorf("coreHeap pop/canSkip/push allocates %.1f objects per %d rounds, want 0", n, opsPerRun)
	}
}

// TestMSHRRingZeroAllocs pins the MSHR window's add and evictMin at
// zero allocations: the ring is sized once, at init.
func TestMSHRRingZeroAllocs(t *testing.T) {
	var ring mshrRing
	ring.init(8)
	t0 := 0.0
	if n := allocsPerOpRun(func() {
		if ring.full() {
			ring.evictMin()
		}
		t0++
		// Out-of-order completions exercise add's shifting path.
		ring.add(t0 + float64(int(t0)%3)*10)
	}); n != 0 {
		t.Errorf("mshrRing add/evictMin allocates %.1f objects per %d rounds, want 0", n, opsPerRun)
	}
}

// TestLookupCachesZeroAllocs pins a warm write-back L1 lookup — hits,
// fills and dirty evictions — at zero allocations.
func TestLookupCachesZeroAllocs(t *testing.T) {
	cfg := CPUConfig(2)
	cfg.WriteBack = true
	e := New(cfg, nil, nil)
	var line geom.LineAddr
	if n := allocsPerOpRun(func() {
		e.lookupCaches(int(line)&1, line%4096, line%3 == 0)
		line += 7
	}); n != 0 {
		t.Errorf("lookupCaches allocates %.1f objects per %d lookups, want 0", n, opsPerRun)
	}
}
