package trace_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// block is one allocation as the binary-search attribution saw it.
type block struct {
	start, end vm.VA
	vid        int
}

// searchVID is the attribution the range index replaced: binary search
// for the first block (by start) ending after va, which owns va if it
// starts at or below it.
func searchVID(blocks []block, va vm.VA) int {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].end > va })
	if i < len(blocks) && blocks[i].start <= va {
		return blocks[i].vid
	}
	return -1
}

// profilingPass sets up a proxy in a fresh address space with col
// attached, then yields its references thread by thread, a batch at a
// time, with each VA translated (faulting pages in on first touch) —
// the (VA, PA) stream a profiling pass feeds the collector. Every
// 97th access is redirected below the heap, where no variable lives.
func profilingPass(t testing.TB, col *trace.Collector, onAlloc func(site string, va vm.VA, bytes uint64), visit func(trace.Access)) {
	t.Helper()
	w, err := workload.NewProxyByName("gcc", workload.ProxyOptions{Refs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	as := vm.NewKernel(geom.Default().Chunks()).NewAddressSpace()
	env := &workload.Env{AS: as, Heap: heap.New(as), Collector: col, OnAlloc: onAlloc}
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	ss := w.Streams(3)
	var buf [64]cpu.Ref
	n := 0
	for live := len(ss); live > 0; {
		live = 0
		for _, s := range ss {
			k := s.NextBatch(buf[:])
			if k > 0 {
				live++
			}
			for _, r := range buf[:k] {
				line, err := as.TranslateLine(r.VA)
				if err != nil {
					t.Fatal(err)
				}
				a := trace.Access{PC: r.PC, VA: r.VA, PA: line}
				if n++; n%97 == 0 {
					a.VA = 0x1000
				}
				visit(a)
			}
		}
	}
}

// TestCollectorMatchesBinarySearch replays one profiling pass into two
// collectors: one attributing through its range index, one fed the
// binary search's answer for every access. Everything the selectors
// read must come out identical.
func TestCollectorMatchesBinarySearch(t *testing.T) {
	got, want := trace.NewCollector(0), trace.NewCollector(0)
	var blocks []block
	note := func(site string, va vm.VA, bytes uint64) {
		want.NoteAlloc(site, va, bytes)
		blocks = append(blocks, block{start: va, end: va + vm.VA(bytes), vid: want.VIDOf(site)})
	}
	sorted := false
	profilingPass(t, got, note, func(a trace.Access) {
		if !sorted {
			sort.Slice(blocks, func(i, j int) bool { return blocks[i].start < blocks[j].start })
			sorted = true
		}
		got.Record(a)
		want.RecordAttributed(a, searchVID(blocks, a.VA))
	})
	if want.TotalRefs() == 0 || want.Unattributed == 0 || len(want.Deltas()) == 0 {
		t.Fatalf("vacuous pass: %d attributed, %d unattributed, %d deltas", want.TotalRefs(), want.Unattributed, len(want.Deltas()))
	}
	if !reflect.DeepEqual(got.Variables(), want.Variables()) {
		t.Fatal("Variables differ from the binary-search attribution")
	}
	if !reflect.DeepEqual(got.Deltas(), want.Deltas()) {
		t.Fatal("Deltas differ from the binary-search attribution")
	}
	if got.GlobalBFRV() != want.GlobalBFRV() || got.Unattributed != want.Unattributed {
		t.Fatalf("GlobalBFRV/Unattributed differ: %d vs %d unattributed", got.Unattributed, want.Unattributed)
	}
}

// BenchmarkCollectorRecord times the collector over one recorded
// profiling pass: registering the proxy's allocations, then
// attributing and folding every access.
func BenchmarkCollectorRecord(b *testing.B) {
	type alloc struct {
		site  string
		va    vm.VA
		bytes uint64
	}
	var allocs []alloc
	var accesses []trace.Access
	profilingPass(b, nil, func(site string, va vm.VA, bytes uint64) {
		allocs = append(allocs, alloc{site, va, bytes})
	}, func(a trace.Access) { accesses = append(accesses, a) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := trace.NewCollector(0)
		for _, a := range allocs {
			c.NoteAlloc(a.site, a.va, a.bytes)
		}
		c.Reserve(len(accesses))
		for _, a := range accesses {
			c.Record(a)
		}
		c.Trim()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accesses)), "ns/access")
}
