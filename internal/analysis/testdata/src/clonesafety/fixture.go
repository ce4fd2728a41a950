// Package fixture exercises sdamvet/clonesafety. Lines with a trailing
// want comment (as matched by the test harness) must produce a clonesafety diagnostic
// whose message contains substr; every other line must stay silent.
package fixture

import (
	"repro/internal/parallel"
	"repro/internal/tape"
	"repro/internal/workload"
)

// Write to a variable captured from the enclosing function: cells race.
func capturedWrite(items []int) int {
	total := 0
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		total += v // want "captured from the enclosing function"
		return v, nil
	})
	return total
}

// A shared workload used inside concurrent thunks: Setup mutates it.
func sharedWorkload(w workload.Workload, envs []*workload.Env) error {
	return parallel.Do(
		func() error {
			return w.Setup(envs[0]) // want "concurrent cells must each use their own copy"
		},
		func() error {
			return w.Setup(envs[1]) // want "concurrent cells must each use their own copy"
		},
	)
}

// Negative: clone inside the thunk, then use the clone.
func clonedWorkload(w workload.Workload, envs []*workload.Env) error {
	return parallel.Do(func() error {
		wk := w.Clone()
		return wk.Setup(envs[0])
	})
}

// Negative: per-cell element writes into a shared results slice are the
// intended collection idiom.
func collect(items []int) []int {
	out := make([]int, len(items))
	_, _ = parallel.MapN(2, items, func(i, v int) (int, error) {
		out[i] = v * 2
		return out[i], nil
	})
	return out
}

// Negative: thunk-local state is free to mutate.
func localState(items []int) ([]int, error) {
	return parallel.Map(items, func(i, v int) (int, error) {
		acc := 0
		for j := 0; j < v; j++ {
			acc += j
		}
		return acc, nil
	})
}

// Negative: a recorded reference tape is immutable after Record, so
// concurrent cells replaying one shared tape only read it — the sweep
// idiom the tape cache exists for.
func sharedTapeReplay(t *tape.Tape, lays []*tape.Layout) error {
	return parallel.Do(
		func() error { _, err := t.Streams(lays[0]); return err },
		func() error { _, err := t.Streams(lays[1]); return err },
	)
}

// One layout captured by every cell: cells race on its allocation
// record, and the tape would silently mix the cells' bases.
func sharedLayoutCapture(items []int) tape.Layout {
	var lay tape.Layout
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		lay.Allocs = nil // want "captured from the enclosing function"
		return v, nil
	})
	return lay
}

// Suppressed: an acknowledged shared-state write.
func suppressedWrite(items []int) int {
	last := -1
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		//lint:ignore sdamvet/clonesafety fixture exercises the suppression path
		last = v
		return v, nil
	})
	return last
}
