package obs

import "testing"

// The //sdam:noalloc contract for the fast paths, pinned at runtime:
// metric updates and disabled spans allocate nothing whether metrics
// are on or off. DESIGN.md §15 cites these pins.

func pinZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Fatalf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestFastPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pin.count", "", "")
	g := r.Gauge("pin.gauge", "", "")
	h := r.Histogram("pin.hist", "", "", []float64{1, 10, 100, 1000})

	pinZeroAllocs(t, "Counter.Add disabled", func() { c.Add(1) })
	pinZeroAllocs(t, "Gauge.Set disabled", func() { g.Set(7) })
	pinZeroAllocs(t, "Histogram.Observe disabled", func() { h.Observe(42) })
	pinZeroAllocs(t, "Span disabled", func() { r.Span("pin.span").End() })
	pinZeroAllocs(t, "Span2 disabled", func() { r.Span2("pin", "detail").End() })
	pinZeroAllocs(t, "Span3 disabled", func() { r.Span3("pin", "a", "b").End() })

	r.EnableMetrics()
	pinZeroAllocs(t, "Counter.Add enabled", func() { c.Add(1) })
	pinZeroAllocs(t, "Gauge.Set enabled", func() { g.Set(7) })
	pinZeroAllocs(t, "Gauge.SetMax enabled", func() { g.SetMax(7) })
	pinZeroAllocs(t, "Histogram.Observe enabled", func() { h.Observe(42) })
}

func TestNilHandleAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	pinZeroAllocs(t, "nil Counter.Add", func() { c.Add(1) })
	pinZeroAllocs(t, "nil Gauge.Set", func() { g.Set(1) })
	pinZeroAllocs(t, "nil Histogram.Observe", func() { h.Observe(1) })
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.count", "", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	r := NewRegistry()
	r.EnableMetrics()
	c := r.Counter("bench.count", "", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	r := NewRegistry()
	r.EnableMetrics()
	c := r.Counter("bench.count", "", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkSpanDisabled(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span2("bench", "span").End()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	r := NewRegistry()
	r.EnableMetrics()
	h := r.Histogram("bench.hist", "", "", []float64{1, 10, 100, 1000, 10000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 2000))
	}
}
