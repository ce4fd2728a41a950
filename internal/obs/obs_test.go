package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterDisabledEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.refs", "refs", "test counter")
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled Add recorded: got %d, want 0", got)
	}
	r.EnableMetrics()
	c.Add(5)
	c.Add(8)
	if got := c.Value(); got != 13 {
		t.Fatalf("Value = %d, want 13", got)
	}
	r.DisableMetrics()
	c.Add(100)
	if got := c.Value(); got != 13 {
		t.Fatalf("Add after disable recorded: got %d, want 13", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	g.Set(4)
	g.SetMax(5)
	h.Observe(6)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
	Span{}.End() // zero span is inert
}

func TestCounterRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "", "")
	b := r.Counter("same", "", "")
	if a != b {
		t.Fatal("re-registering a counter must return the same handle")
	}
}

func TestCounterConcurrentShards(t *testing.T) {
	r := NewRegistry()
	r.EnableMetrics()
	c := r.Counter("conc", "", "")
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	r.EnableMetrics()
	g := r.Gauge("hwm", "", "")
	g.SetMax(5)
	g.SetMax(3)
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax high-water = %d, want 9", got)
	}
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("Set = %d, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.EnableMetrics()
	h := r.Histogram("lat", "", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := h.Sum(); got != 0.5+1+2+10+50+1000 {
		t.Fatalf("Sum = %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms in snapshot: %d", len(snap.Histograms))
	}
	want := []int64{2, 2, 1, 1} // ≤1, ≤10, ≤100, overflow
	got := snap.Histograms[0].Counts
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSpanAggregationAndReset(t *testing.T) {
	r := NewRegistry()
	if s := r.Span("never"); s.reg != nil {
		t.Fatal("span must be inert while disabled")
	}
	r.EnableMetrics()
	r.Span("phase:a").End()
	r.Span2("phase", "a").End()
	r.Span3("cell", "w", "k").End()
	snap := r.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("span names = %d, want 2: %+v", len(snap.Spans), snap.Spans)
	}
	if snap.Spans[0].Name != "cell:w/k" || snap.Spans[0].Count != 1 {
		t.Fatalf("span[0] = %+v", snap.Spans[0])
	}
	if snap.Spans[1].Name != "phase:a" || snap.Spans[1].Count != 2 {
		t.Fatalf("span[1] = %+v", snap.Spans[1])
	}
	r.Reset()
	if snap := r.Snapshot(); len(snap.Spans) != 0 {
		t.Fatalf("spans survived Reset: %+v", snap.Spans)
	}
}

func TestTraceLanesAndExport(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing()
	a := r.Span("outer")
	b := r.Span("inner")
	if a.lane == b.lane {
		t.Fatalf("concurrent spans share lane %d", a.lane)
	}
	b.End()
	c := r.Span("reuse")
	if c.lane != b.lane {
		t.Fatalf("freed lane not reused: got %d, want %d", c.lane, b.lane)
	}
	c.End()
	a.End()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 3 {
		t.Fatalf("trace events = %d, want 3", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Fatalf("event ph = %v, want X", e["ph"])
		}
		if _, ok := e["dur"].(float64); !ok {
			t.Fatalf("event dur missing: %v", e)
		}
	}
}

func TestSnapshotDeterministicDropsHostTime(t *testing.T) {
	r := NewRegistry()
	r.EnableMetrics()
	r.Counter("work.items", "refs", "").Add(3)
	r.Counter("work.busy_ns", "ns", "").Add(12345)
	r.Gauge("work.peak", "", "").Set(2)
	r.Gauge("work.wall_ns", "ns", "").Set(999)
	r.Counter("work.pool_news", "devices", "").Host().Add(4)
	r.Gauge("work.width", "workers", "").Host().Set(8)
	r.Span("phase:x").End()

	det := r.Snapshot().Deterministic()
	for _, c := range det.Counters {
		if c.Unit == "ns" || c.Host {
			t.Fatalf("host-dependent counter survived Deterministic: %+v", c)
		}
	}
	for _, g := range det.Gauges {
		if g.Unit == "ns" || g.Host {
			t.Fatalf("host-dependent gauge survived Deterministic: %+v", g)
		}
	}
	if len(det.Counters) != 1 || len(det.Gauges) != 1 {
		t.Fatalf("unexpected survivors: %+v", det)
	}
	if len(det.Spans) != 1 || det.Spans[0].TotalNs != 0 || det.Spans[0].Count != 1 {
		t.Fatalf("span not normalized: %+v", det.Spans)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.EnableMetrics()
	r.Counter("b", "", "second").Add(2)
	r.Counter("a", "", "first").Add(1)
	var one, two bytes.Buffer
	if err := r.Snapshot().Deterministic().WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().Deterministic().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("snapshot not byte-stable:\n%s\nvs\n%s", one.String(), two.String())
	}
	if !strings.Contains(one.String(), `"schema": 5`) {
		t.Fatalf("snapshot missing schema %d:\n%s", SnapshotSchema, one.String())
	}
	idxA := strings.Index(one.String(), `"a"`)
	idxB := strings.Index(one.String(), `"b"`)
	if idxA < 0 || idxB < 0 || idxA > idxB {
		t.Fatalf("counters not sorted by name:\n%s", one.String())
	}
}

func TestDefaultRegistryConveniences(t *testing.T) {
	Reset()
	DisableMetrics()
	DisableTracing()
	t.Cleanup(func() { Reset(); DisableMetrics(); DisableTracing() })

	c := NewCounter("conv.count", "", "")
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("Default registry recorded while disabled")
	}
	EnableMetrics()
	if !Enabled() {
		t.Fatal("Enabled() = false after EnableMetrics")
	}
	c.Add(1)
	if c.Value() != 1 {
		t.Fatal("Default registry dropped an enabled Add")
	}
	if !SpanActive() {
		t.Fatal("SpanActive must be true with metrics on")
	}
	StartSpan("conv.span").End()
	EnableTracing()
	if !TracingEnabled() {
		t.Fatal("TracingEnabled() = false after EnableTracing")
	}
	Span2("conv", "two").End()
	Span3("conv", "a", "b").End()
	if got := len(Default.Events()); got != 2 {
		t.Fatalf("traced events = %d, want 2", got)
	}
}
