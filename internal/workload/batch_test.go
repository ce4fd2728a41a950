package workload

import (
	"testing"

	"repro/internal/cpu"
)

// batchedStride returns a set-up single-thread stride stream for the
// generator-stream contract tests.
func batchedStride(t *testing.T, seed int64) *mixStream {
	t.Helper()
	w := NewStrideCopy([]int{4}, 5000, 1<<20)
	if err := w.Setup(newEnv(t)); err != nil {
		t.Fatal(err)
	}
	return w.Streams(seed)[0].(*mixStream)
}

// TestMixStreamResetReplaysIdentically pins Reset: a drained generator
// stream rewound with Reset must re-emit its exact sequence.
func TestMixStreamResetReplaysIdentically(t *testing.T) {
	ms := batchedStride(t, 11)
	var first []cpu.Ref
	for {
		r, ok := ms.Next()
		if !ok {
			break
		}
		first = append(first, r)
	}
	if len(first) != 5000 {
		t.Fatalf("emitted %d refs, want 5000", len(first))
	}
	ms.Reset()
	for i := range first {
		r, ok := ms.Next()
		if !ok {
			t.Fatalf("replay ended early at %d", i)
		}
		if r != first[i] {
			t.Fatalf("replay ref %d = %+v, first run %+v", i, r, first[i])
		}
	}
	if _, ok := ms.Next(); ok {
		t.Fatal("replay emitted extra refs")
	}
}

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
