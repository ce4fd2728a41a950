// Package obs is the simulator's observability layer: a process-wide
// registry of counters, gauges, and histograms plus span-style phase
// timers, designed so that instrumentation left permanently in hot
// paths costs one atomic load when disabled and never allocates.
//
// Six performance PRs made the simulator fast but opaque: the only
// windows into a run were sdambench -json aggregates and ad-hoc prints,
// so regressions like the refresh-scaling bug were found by accident.
// The papers this reproduction follows (DReAM, Sudoku — see PAPERS.md)
// reason about mapping quality from continuously observed
// per-bank/per-component access statistics; obs exposes the same class
// of signals as first-class structured telemetry:
//
//   - Counters, gauges, and histograms register once (package init or
//     setup paths) and are updated from hot paths through nil-safe,
//     branch-cheap, zero-allocation methods. A counter is one atomic
//     cell: hot paths count per cell or per tile, never per
//     reference, so concurrent workers rarely meet on it.
//
//   - Spans time phases (tape build, profiling pass, selection,
//     simulation). When tracing is enabled the events additionally
//     record into a bounded buffer exportable as Chrome trace_event
//     JSON, which Perfetto (https://ui.perfetto.dev) opens directly.
//
//   - Snapshot serializes every registered metric as deterministic,
//     schema-versioned JSON (SnapshotSchema) — the -metrics flag on
//     cmd/sdamsim and cmd/sdambench, and the package API tests assert
//     counter invariants against ("selection cache hit ⇒ zero optimizer
//     steps").
//
// Everything is disabled by default. The zero-overhead-when-disabled
// argument is DESIGN.md §15; the metric and span catalog is
// docs/OBSERVABILITY.md. Instrumented //sdam:noalloc hot paths stay
// legal: the obs fast-path methods allocate nothing, and sdamvet's
// noalloc rule knows obs calls are allowed.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// sortedKeys returns the map's keys in sorted order, so registry
// traversals (Reset, Snapshot) run in a deterministic order instead of
// map-iteration order. All callers are cold paths.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Registry holds the registered metrics and the span log. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	// metrics and tracing gate the fast paths. Split flags: metrics
	// (counters + span aggregates) are cheap enough for CI snapshots,
	// tracing additionally retains every span event for export.
	metrics atomic.Bool
	tracing atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tr traceLog
}

// NewRegistry creates an empty registry with metrics and tracing
// disabled.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.tr.init()
	return r
}

// Default is the process-wide registry every built-in instrumentation
// site registers against. Tests that assert counter equalities enable
// it, read it, and Reset it.
var Default = NewRegistry()

// EnableMetrics turns on counter/gauge/histogram updates and span
// aggregation.
func (r *Registry) EnableMetrics() { r.metrics.Store(true) }

// DisableMetrics stops metric updates. Accumulated values remain until
// Reset.
func (r *Registry) DisableMetrics() { r.metrics.Store(false) }

// MetricsEnabled reports whether metric updates are on.
func (r *Registry) MetricsEnabled() bool { return r.metrics.Load() }

// EnableTracing turns on span-event retention for trace export. The
// trace clock starts (or restarts) at zero now.
func (r *Registry) EnableTracing() {
	r.tr.start()
	r.tracing.Store(true)
}

// DisableTracing stops retaining span events. Retained events remain
// until Reset.
func (r *Registry) DisableTracing() { r.tracing.Store(false) }

// TracingEnabled reports whether span events are being retained.
func (r *Registry) TracingEnabled() bool { return r.tracing.Load() }

// SpanActive reports whether Span/Span2/Span3 will record anything —
// callers that must build a span name from parts can branch on it to
// keep the disabled path allocation-free.
func (r *Registry) SpanActive() bool { return r.metrics.Load() || r.tracing.Load() }

// Reset zeroes every registered metric and drops all retained span
// data. Registrations survive: the same *Counter handles keep working.
func (r *Registry) Reset() {
	r.mu.Lock()
	for _, k := range sortedKeys(r.counters) {
		r.counters[k].reset()
	}
	for _, k := range sortedKeys(r.gauges) {
		r.gauges[k].reset()
	}
	for _, k := range sortedKeys(r.hists) {
		r.hists[k].reset()
	}
	r.mu.Unlock()
	r.tr.reset()
}

// Counter registers (or returns the existing) counter with the given
// name. Units are free-form but conventional ("refs", "bytes", "ns");
// metrics with unit "ns" are host-time measurements and are dropped by
// Snapshot.Deterministic. Registration is not a hot-path operation.
func (r *Registry) Counter(name, unit, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{on: &r.metrics, name: name, unit: unit, help: help}
	r.counters[name] = c
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{on: &r.metrics, name: name, unit: unit, help: help}
	r.gauges[name] = g
	return g
}

// Histogram registers (or returns the existing) histogram with the
// given ascending upper bucket bounds; values above the last bound land
// in an implicit overflow bucket. The bounds slice is copied.
func (r *Registry) Histogram(name, unit, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		on: &r.metrics, name: name, unit: unit, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Counter is a monotonically increasing sum in one atomic cell. The
// nil counter is a valid no-op, so conditional instrumentation can hold
// a nil handle.
type Counter struct {
	on   *atomic.Bool
	name string
	unit string
	help string
	host bool

	v atomic.Int64
}

// Host marks the counter as host-dependent — its value reflects process
// or scheduler state (worker count, work splitting) rather than
// simulated work, so Snapshot.Deterministic drops it the way it drops
// "ns" metrics. Returns the receiver for chaining at registration.
func (c *Counter) Host() *Counter {
	if c != nil {
		c.host = true
	}
	return c
}

// Add adds n to the counter when metrics are enabled. One atomic load
// plus (when enabled) one atomic add; never allocates.
//
//sdam:noalloc
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current sum.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a last-value (or running-max) metric.
type Gauge struct {
	on   *atomic.Bool
	name string
	unit string
	help string
	host bool

	v atomic.Int64
}

// Host marks the gauge as host-dependent; see Counter.Host.
func (g *Gauge) Host() *Gauge {
	if g != nil {
		g.host = true
	}
	return g
}

// Set stores v when metrics are enabled.
//
//sdam:noalloc
func (g *Gauge) Set(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v when v exceeds the current value —
// high-water-mark gauges (pool size, live mappings, worker width).
//
//sdam:noalloc
func (g *Gauge) SetMax(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

func (g *Gauge) reset() { g.v.Store(0) }

// Histogram counts observations into fixed buckets. Bounds are upper
// limits: an observation lands in the first bucket whose bound it does
// not exceed, or the overflow bucket past the last bound.
type Histogram struct {
	on     *atomic.Bool
	name   string
	unit   string
	help   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow

	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value when metrics are enabled. Binary search
// over the fixed bounds plus two atomic updates; never allocates.
//
//sdam:noalloc
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on.Load() {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := floatBits(bitsFloat(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return bitsFloat(h.sum.Load())
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Package-level conveniences against Default — the form the
// instrumentation sites and the cmd drivers use.

// NewCounter registers (or fetches) a counter on the Default registry.
func NewCounter(name, unit, help string) *Counter { return Default.Counter(name, unit, help) }

// NewGauge registers (or fetches) a gauge on the Default registry.
func NewGauge(name, unit, help string) *Gauge { return Default.Gauge(name, unit, help) }

// NewHistogram registers (or fetches) a histogram on the Default registry.
func NewHistogram(name, unit, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, unit, help, bounds)
}

// EnableMetrics enables metric updates on the Default registry.
func EnableMetrics() { Default.EnableMetrics() }

// DisableMetrics disables metric updates on the Default registry.
func DisableMetrics() { Default.DisableMetrics() }

// Enabled reports whether the Default registry records metrics.
func Enabled() bool { return Default.MetricsEnabled() }

// EnableTracing enables span-event retention on the Default registry.
func EnableTracing() { Default.EnableTracing() }

// DisableTracing disables span-event retention on the Default registry.
func DisableTracing() { Default.DisableTracing() }

// TracingEnabled reports whether the Default registry retains span
// events.
func TracingEnabled() bool { return Default.TracingEnabled() }

// SpanActive reports whether spans on the Default registry record.
func SpanActive() bool { return Default.SpanActive() }

// Reset zeroes the Default registry's metrics and span data.
func Reset() { Default.Reset() }
