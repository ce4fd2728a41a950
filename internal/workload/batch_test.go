package workload

import (
	"testing"

	"repro/internal/cpu"
)

// TestMixStreamNextBatchZeroAllocs pins batch generation at zero heap
// allocations per batch — the property that keeps incremental streams
// strictly cheaper than materialized ones.
func TestMixStreamNextBatchZeroAllocs(t *testing.T) {
	w := NewStrideCopy([]int{4}, 1<<30, 1<<20) // effectively endless
	if err := w.Setup(newEnv(t)); err != nil {
		t.Fatal(err)
	}
	ms := w.Streams(3)[0].(*mixStream)
	buf := make([]cpu.Ref, 64)
	if n := testing.AllocsPerRun(500, func() {
		if ms.NextBatch(buf) == 0 {
			t.Fatal("stream ended")
		}
	}); n != 0 {
		t.Errorf("NextBatch allocates %.1f objects per batch, want 0", n)
	}
}
