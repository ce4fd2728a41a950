package cpu

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/vm"
)

// linearMSHR is the pre-optimization MSHR window: an insertion-ordered
// slice, evicting via a first-minimum linear scan plus element shift.
// It is the behavioral reference the sorted ring must match.
type linearMSHR struct {
	outstanding []float64
	slots       int
}

func (l *linearMSHR) full() bool { return len(l.outstanding) >= l.slots }

func (l *linearMSHR) add(t float64) { l.outstanding = append(l.outstanding, t) }

func (l *linearMSHR) evictMin() float64 {
	earliest := 0
	for i, t := range l.outstanding {
		if t < l.outstanding[earliest] {
			earliest = i
		}
	}
	t := l.outstanding[earliest]
	l.outstanding = append(l.outstanding[:earliest], l.outstanding[earliest+1:]...)
	return t
}

// TestMSHRRingMatchesLinearScan drives the sorted ring and the old
// linear scan through identical add/evict schedules and requires the
// evicted values — the only observable output (they set stall times) —
// to agree exactly.
func TestMSHRRingMatchesLinearScan(t *testing.T) {
	cases := []struct {
		name  string
		slots int
		adds  []float64
	}{
		{"ordered", 4, []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{"reversed", 4, []float64{8, 7, 6, 5, 4, 3, 2, 1}},
		{"duplicates", 3, []float64{5, 5, 5, 2, 2, 9, 5, 2}},
		{"single-slot", 1, []float64{3, 1, 4, 1, 5}},
		{"plateau-then-drop", 2, []float64{10, 10, 10, 1, 10, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ring mshrRing
			ring.init(tc.slots)
			ref := &linearMSHR{slots: tc.slots}
			for i, v := range tc.adds {
				if ring.full() != ref.full() {
					t.Fatalf("step %d: ring.full()=%v, linear %v", i, ring.full(), ref.full())
				}
				if ring.full() {
					got, want := ring.evictMin(), ref.evictMin()
					if got != want {
						t.Fatalf("step %d: evictMin %v, linear scan %v", i, got, want)
					}
				}
				ring.add(v)
				ref.add(v)
			}
			// Drain: the remaining multisets must agree too.
			for len(ref.outstanding) > 0 {
				got, want := ring.evictMin(), ref.evictMin()
				if got != want {
					t.Fatalf("drain: evictMin %v, linear scan %v", got, want)
				}
			}
		})
	}
}

// TestMSHRRingRandomizedAgainstLinearScan fuzzes longer interleaved
// schedules (seeded, so the test is reproducible).
func TestMSHRRingRandomizedAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		slots := 1 + rng.Intn(64)
		var ring mshrRing
		ring.init(slots)
		ref := &linearMSHR{slots: slots}
		for op := 0; op < 500; op++ {
			// Coarse values force ties; the reference and the ring must
			// still agree because only values are observable.
			v := float64(rng.Intn(20))
			if ring.full() {
				got, want := ring.evictMin(), ref.evictMin()
				if got != want {
					t.Fatalf("slots=%d op=%d: evictMin %v, linear scan %v", slots, op, got, want)
				}
			}
			ring.add(v)
			ref.add(v)
		}
	}
}

// refHeap drives container/heap over the same ordering, as the
// reference for the inlined coreHeap.
type refHeap []*coreState

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].nextReady < h[j].nextReady }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*coreState)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestCoreHeapMatchesContainerHeap verifies the inlined sift routines
// and the canSkip elision against container/heap element-for-element:
// after every operation the two arrays must hold the same cores in the
// same slots, so tie-break history — which decides engine interleaving
// and therefore bit-identical results — is preserved exactly.
func TestCoreHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		mine := &coreHeap{}
		ref := &refHeap{}
		states := make([]*coreState, n)
		shadow := make([]*coreState, n) // same ids, for the reference heap
		for i := range states {
			states[i] = &coreState{id: i}
			shadow[i] = &coreState{id: i}
			mine.push(states[i])
			heap.Push(ref, shadow[i])
		}
		check := func(op string) {
			t.Helper()
			if len(*mine) != len(*ref) {
				t.Fatalf("trial %d %s: len %d vs %d", trial, op, len(*mine), len(*ref))
			}
			for i := range *mine {
				if (*mine)[i].id != (*ref)[i].id || (*mine)[i].nextReady != (*ref)[i].nextReady {
					t.Fatalf("trial %d %s: slot %d holds core %d (t=%v), reference %d (t=%v)",
						trial, op, i, (*mine)[i].id, (*mine)[i].nextReady, (*ref)[i].id, (*ref)[i].nextReady)
				}
			}
		}
		check("init")
		for op := 0; op < 200 && len(*mine) > 0; op++ {
			c := mine.pop()
			r := heap.Pop(ref).(*coreState)
			if c.id != r.id {
				t.Fatalf("trial %d op %d: popped core %d, reference popped %d", trial, op, c.id, r.id)
			}
			check("pop")
			if rng.Intn(8) == 0 {
				continue // retire the core
			}
			// Coarse keys manufacture ties on purpose.
			key := float64(rng.Intn(6))
			c.nextReady, r.nextReady = key, key
			// The engine elides the round-trip only when canSkip proves
			// the array state afterwards is identical; emulate that by
			// performing the round-trip on BOTH heaps whenever it is not
			// provable, and on NEITHER when it is — then compare.
			if !(*mine).canSkip(key) {
				mine.push(c)
				heap.Push(ref, r)
				check("push")
			} else {
				// canSkip claims push+pop is the identity: verify against
				// the reference by actually doing it there.
				heap.Push(ref, r)
				if back := heap.Pop(ref).(*coreState); back.id != r.id {
					t.Fatalf("trial %d op %d: canSkip elided a round-trip that would pop core %d, not %d",
						trial, op, back.id, r.id)
				}
				check("skip")
			}
		}
	}
}

// TestSliceStreamBatches pins SliceStream's reads: batches and single
// references (Next, through NextOf) interleave in order, and a short
// tail batch and an empty one end the stream.
func TestSliceStreamBatches(t *testing.T) {
	refs := make([]Ref, 10)
	for i := range refs {
		refs[i] = Ref{VA: 0x1000 + 64*vm.VA(i), Write: i%3 == 0}
	}
	s := &SliceStream{Refs: refs}
	buf := make([]Ref, 4)
	if n := s.NextBatch(buf); n != 4 || buf[0] != refs[0] || buf[3] != refs[3] {
		t.Fatalf("first batch: n=%d buf=%v", n, buf[:n])
	}
	if r, ok := s.Next(); !ok || r != refs[4] {
		t.Fatalf("Next after batch: %v %v", r, ok)
	}
	if n := s.NextBatch(buf); n != 4 || buf[0] != refs[5] {
		t.Fatalf("second batch: n=%d buf[0]=%v", n, buf[0])
	}
	if n := s.NextBatch(buf); n != 1 || buf[0] != refs[9] {
		t.Fatalf("tail batch: n=%d", n)
	}
	if n := s.NextBatch(buf); n != 0 {
		t.Fatalf("exhausted batch: n=%d", n)
	}
}
