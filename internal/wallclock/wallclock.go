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
// hatch auditable: the only two seededrand suppressions in the tree
// live below, and any new wall-clock dependency has to either go
// through here (and be normalized in the determinism tests) or carry
// its own visible //lint:ignore justification.
package wallclock

import "time"

// Now returns the host wall-clock time. Use only for reported
// profiling-cost measurements, never to influence simulated state.
func Now() time.Time {
	return time.Now() //lint:ignore sdamvet/seededrand the sanctioned wall-clock read for Fig 13 profiling-time reporting
}

// Since returns the wall-clock time elapsed since t.
func Since(t time.Time) time.Duration {
	return time.Since(t) //lint:ignore sdamvet/seededrand the sanctioned wall-clock read for Fig 13 profiling-time reporting
}
