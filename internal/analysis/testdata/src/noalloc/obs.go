package fixture

import "repro/internal/obs"

// Instrumentation left in hot paths is sanctioned: the obs fast-path
// methods are nil-safe, branch-cheap, and pinned zero-alloc by that
// package's own AllocsPerRun tests, so none of these calls may produce
// a noalloc diagnostic. (The exemption also covers any future obs API
// taking interface parameters — the callee package, not the call site,
// owns the zero-alloc proof.)

var (
	fixCounter = obs.NewCounter("fixture.ops", "ops", "fixture counter")
	fixGauge   = obs.NewGauge("fixture.depth", "items", "fixture gauge")
	fixHist    = obs.NewHistogram("fixture.lat", "ns", "fixture histogram", []float64{1, 10})
)

// Negative: obs fast-path calls inside an annotated body stay silent.
//
//sdam:noalloc
func instrumentedHotLoop(n int) {
	sp := obs.StartSpan("fixture:loop")
	for i := 0; i < n; i++ {
		fixCounter.Add(1)
		fixGauge.Set(int64(i))
		fixHist.Observe(float64(i))
	}
	sp.End()
}

// Negative: a nil handle (registration skipped) is still a no-op call,
// not an allocation.
//
//sdam:noalloc
func nilHandleHotPath(c *obs.Counter) {
	c.Add(1)
}
