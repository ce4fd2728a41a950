// Package wallclock is the simulator's single sanctioned source of host
// wall-clock time.
//
// Simulated results must be bit-identical across runs and across -jobs
// counts, so deterministic simulation code must never consult the host
// clock — sdamvet's seededrand analyzer enforces that mechanically by
// flagging every use of time.Now and time.Since in the tree. The one
// legitimate exception is the offline profiling cost the paper's Fig 13
// reports (Selection.ProfilingTime, Result.ProfilingTime): a measured
// wall-clock duration that is nondeterministic by nature and explicitly
// normalized away by the determinism regression tests. Host-cost
// reporting (the obs "ns" counters and spans, the benchmark harness in
// bench/) uses the same escape hatch: it measures host time around
// simulation calls, never feeds it back in.
//
// Routing that one exception through this package keeps the escape
// hatch auditable: seededrand skips this package and no other, so any
// new wall-clock dependency has to go through here (and be normalized
// in the determinism tests).
package wallclock

import "time"

// Now returns the host wall-clock time. Use only for reported
// profiling-cost measurements, never to influence simulated state.
func Now() time.Time {
	return time.Now()
}

// Since returns the wall-clock time elapsed since t.
func Since(t time.Time) time.Duration {
	return time.Since(t)
}
