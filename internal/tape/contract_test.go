package tape

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// contractCase is one in-tree workload and a variant of it built with
// different options, which must therefore carry a different TapeKey.
type contractCase struct {
	w, variant workload.Workload
}

// contractCases covers every in-tree workload family: the eight paper
// kernels plus Transpose and Stencil, the 19 Table 1 proxies, the
// stride copy, and a recorded trace replayed as a workload.
func contractCases(t *testing.T) []contractCase {
	t.Helper()
	small, other := apps.Options{MaxRefs: 6_000}, apps.Options{MaxRefs: 6_001}
	var cases []contractCase
	for _, mk := range []func(apps.Options) workload.Workload{
		func(o apps.Options) workload.Workload { return apps.NewBFS(o) },
		func(o apps.Options) workload.Workload { return apps.NewPageRank(o) },
		func(o apps.Options) workload.Workload { return apps.NewSSSP(o) },
		func(o apps.Options) workload.Workload { return apps.NewHashJoin(o) },
		func(o apps.Options) workload.Workload { return apps.NewMergeJoin(o) },
		func(o apps.Options) workload.Workload { return apps.NewKMeansApp(o) },
		func(o apps.Options) workload.Workload { return apps.NewHNSW(o) },
		func(o apps.Options) workload.Workload { return apps.NewIVFPQ(o) },
		func(o apps.Options) workload.Workload { return apps.NewTranspose(o) },
		func(o apps.Options) workload.Workload { return apps.NewStencil(o) },
	} {
		cases = append(cases, contractCase{mk(small), mk(other)})
	}
	for _, tg := range workload.Table1Targets {
		cases = append(cases, contractCase{
			workload.NewProxy(tg, workload.ProxyOptions{Refs: 6_000}),
			workload.NewProxy(tg, workload.ProxyOptions{Refs: 6_000, MaxMinorVars: 7}),
		})
	}
	stride := workload.NewStrideCopy([]int{1, 5, 32}, 2_000, 1<<20)
	strideVariant := workload.NewStrideCopy([]int{1, 5, 33}, 2_000, 1<<20)
	cases = append(cases, contractCase{stride, strideVariant})
	trace := func(w workload.Workload) workload.Workload {
		f, err := tracefile.Record(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		return f.Workload()
	}
	cases = append(cases, contractCase{trace(stride.Clone()), trace(strideVariant.Clone())})
	return cases
}

// drainLines drains sealed streams through NextBatchLines with buffers
// of size n, the path the engine takes for them.
func drainLines(ss []cpu.Stream, n int) [][]cpu.Ref {
	out := make([][]cpu.Ref, len(ss))
	refs, lines := make([]cpu.Ref, n), make([]geom.LineAddr, n)
	for i, s := range ss {
		lb := s.(cpu.LineBatchStream)
		for k := lb.NextBatchLines(refs, lines); k > 0; k = lb.NextBatchLines(refs, lines) {
			out[i] = append(out[i], refs[:k]...)
		}
	}
	return out
}

// TestWorkloadContract checks the workload and stream contracts on
// every in-tree workload: Clone keeps Name and TapeKey and sets up
// without disturbing the original; other options give another key;
// every stream's Remaining is exactly what it then emits; and the
// emission is the same for any NextBatch buffer size — live, replayed
// from a tape, and from a sealed tape.
func TestWorkloadContract(t *testing.T) {
	const seed = 5
	sizes := []int{1, 7, 64, 256}
	keys := map[string]string{}
	for _, c := range contractCases(t) {
		w := c.w
		name, key := w.Name(), w.TapeKey()
		if prev, dup := keys[key]; dup {
			t.Fatalf("%s and %s share TapeKey %q", prev, name, key)
		}
		keys[key] = name
		if vk := c.variant.TapeKey(); vk == key {
			t.Errorf("%s: a variant with other options keeps TapeKey %q", name, key)
		}

		lay, as := setup(t, w, 0)
		want := drainBy(t, w.Streams(seed), sizes[0])
		for _, n := range sizes[1:] {
			sameRefs(t, drainBy(t, w.Streams(seed), n), want)
		}

		tp := Record(w.Streams(seed), lay)
		for _, n := range sizes {
			sameRefs(t, drainBy(t, tp.mustStreams(t, &lay), n), want)
		}
		for _, refs := range want {
			for _, r := range refs {
				if _, err := as.TranslateLine(r.VA); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		sealed, err := tp.Seal(&lay, as)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, n := range sizes {
			sameRefs(t, drainBy(t, sealed.Streams(), n), want)
			sameRefs(t, drainLines(sealed.Streams(), n), want)
		}

		cl := w.Clone()
		if cl.Name() != name || cl.TapeKey() != key {
			t.Errorf("%s: clone is %s with TapeKey %q, want %q", name, cl.Name(), cl.TapeKey(), key)
		}
		if clay, _ := setup(t, cl, 3*geom.PageBytes); lay.sameBases(&clay) {
			t.Fatalf("%s: clone set up at the original's bases; test is vacuous", name)
		}
		sameRefs(t, drainBy(t, w.Streams(seed), 64), want)
	}
}
