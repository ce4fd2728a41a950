// Package parallel is the bounded-concurrency execution layer for the
// simulator's embarrassingly-parallel work: every (workload ×
// configuration × sweep-point) cell of the experiment harness builds its
// own machine and seeded RNGs, so cells can fan out across host cores
// while the simulated results stay bit-identical to a serial run.
//
// The package exposes one primitive, Map: an ordered fan-out over a
// slice. Results come back indexed exactly like the inputs, failures
// never abort the remaining items (partial results survive in stable
// order), a panicking item panics on the calling goroutine exactly as in
// a serial loop (never from a worker, where nothing could recover it),
// and the worker budget defaults to GOMAXPROCS — overridable
// process-wide with SetJobs (the cmd drivers' -jobs flag) or per call
// with MapN.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/wallclock"
)

// Per-worker utilization counters. The timing wrapper is installed only
// while metrics are enabled, so a disabled run never consults the host
// clock. Each counter moves once per item, never per reference, so
// one atomic cell per counter is all the workers share.
var (
	// Host-marked: the item count follows how finely callers split
	// their work for the worker budget (the DL trainer tiles a batch by
	// -jobs), and width is the -jobs setting; neither is simulated work.
	statItems  = obs.NewCounter("parallel.items", "items", "work items executed by the pool").Host()
	statBusyNs = obs.NewCounter("parallel.busy_ns", "ns", "host time workers spent inside work items")
	statWidth  = obs.NewGauge("parallel.width", "workers", "high-water concurrent worker count").Host()
)

// jobs holds the process-wide worker budget; zero means GOMAXPROCS.
var jobs atomic.Int64

// Jobs returns the current process-wide worker budget.
func Jobs() int {
	if n := int(jobs.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetJobs sets the process-wide worker budget and returns the previous
// value. n <= 0 resets to the GOMAXPROCS default.
func SetJobs(n int) int {
	prev := Jobs()
	if n < 0 {
		n = 0
	}
	jobs.Store(int64(n))
	return prev
}

// Map applies fn to every item with at most Jobs() concurrent workers
// and returns the results in input order. See MapN.
func Map[T, R any](items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapN(Jobs(), items, fn)
}

// MapN is Map with an explicit worker budget. Every item is attempted
// even when earlier items fail: the result slice always has len(items)
// entries, each holding what fn returned for its item (at a failed
// index, whatever partial R fn returned with its error), and the
// returned error joins the per-item errors in index order. A panic is
// not an error: it reaches the calling goroutine at any worker count
// (see firstPanic), so containing it is the caller's choice. jobs <= 1
// (or a single item) runs fully serially on the calling goroutine,
// which the determinism tests use as the reference execution.
func MapN[T, R any](jobs int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapNWorker(jobs, items, func(_, i int, item T) (R, error) { return fn(i, item) })
}

// MapNWorker is MapN exposing the executing worker's index to fn
// (0 <= worker < min(jobs, len(items))), so callers can maintain
// per-worker scratch — reused gradient buffers, forward-pass caches —
// without locking or per-item allocation. Worker w never runs two items
// concurrently, so scratch indexed by w is race-free; deterministic
// callers must ensure each item's RESULT is independent of which worker
// computed it (scratch contents may differ, outputs may not).
func MapNWorker[T, R any](jobs int, items []T, fn func(worker, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, nil
	}
	errs := make([]error, len(items))
	if jobs > len(items) {
		jobs = len(items)
	}
	if obs.Enabled() {
		inner := fn
		fn = func(w, i int, item T) (R, error) {
			start := wallclock.Now()
			r, err := inner(w, i, item)
			statBusyNs.Add(wallclock.Since(start).Nanoseconds())
			statItems.Add(1)
			return r, err
		}
		statWidth.SetMax(int64(jobs))
	}
	if jobs <= 1 {
		for i, it := range items {
			out[i], errs[i] = fn(0, i, it)
		}
		return out, errors.Join(errs...)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var failed firstPanic
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				failed.run(i, func() { out[i], errs[i] = fn(w, i, items[i]) })
			}
		}(w)
	}
	wg.Wait()
	if failed.p != nil {
		panic(failed.p)
	}
	return out, errors.Join(errs...)
}

// firstPanic keeps the lowest-index panic of a fan-out. A panic must not
// unwind a worker goroutine — nothing above it could recover it, so the
// process would die — and it must not be turned into an error either,
// because callers that cannot fail ignore the error and would carry on
// with a hole in their slots. Instead each worker catches it here, the
// remaining items run, and MapNWorker re-raises it on the calling
// goroutine: the caller sees the panic of the same item a serial loop
// would have stopped at, whatever the worker count.
type firstPanic struct {
	mu sync.Mutex
	p  *itemPanic
}

// itemPanic is the re-raised value: the item, its panic value, and the
// worker's stack at the panic.
type itemPanic struct {
	item  int
	value any
	stack []byte
}

func (p *itemPanic) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v\n%s", p.item, p.value, p.stack)
}

// run calls fn for item i, keeping its panic if it is the lowest so far.
func (f *firstPanic) run(i int, fn func()) {
	defer func() {
		if v := recover(); v != nil {
			f.mu.Lock()
			if f.p == nil || i < f.p.item {
				f.p = &itemPanic{item: i, value: v, stack: debug.Stack()}
			}
			f.mu.Unlock()
		}
	}()
	fn()
}
