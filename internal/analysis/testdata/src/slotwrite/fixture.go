// Package fixture exercises sdamvet/slotwrite. Lines with a trailing
// want comment must produce a slotwrite diagnostic whose message
// contains substr; every other line must stay silent.
package fixture

import "repro/internal/parallel"

type shared struct {
	total int
	vals  []int
}

// Write to a captured slice at a position not derived from any thunk
// parameter: two cells land on the same slot.
func fixedPosition(items []int, out []int, k int) {
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		out[k] = v // want "non-index-derived position"
		out[0] = v // want "non-index-derived position"
		return v, nil
	})
}

// Store into a captured map: concurrent map writes race even on
// distinct keys.
func mapStore(items []int, seen map[int]bool) {
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		seen[v] = true // want "store into captured map"
		return v, nil
	})
}

// Shared-field store through a captured pointer: no slot owns it.
func fieldStore(items []int, acc *shared) {
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		acc.total = v // want "no slot owns it"
		acc.total++   // want "no slot owns it"
		return v, nil
	})
}

// Append to a captured slice: growth moves the backing array under
// concurrent cells and orders elements by scheduling.
func sharedAppend(items []int) []int {
	var res []int
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		res = append(res, v) // want "append to captured slice"
		return v, nil
	})
	return res
}

// Negative: the index parameter owns its slot, directly or through
// arithmetic and thunk-local derivation.
func indexOwned(items []int, out []int) {
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		out[i] = v
		out[i*2%len(out)] = v
		j := i + 1
		out[j%len(out)] = v
		return v, nil
	})
}

// Negative: span-style thunks derive positions from the item parameter.
func spanOwned(spans [][2]int, out []int) {
	_, _ = parallel.MapN(2, spans, func(_ int, s [2]int) (int, error) {
		for i := s[0]; i < s[1]; i++ {
			out[i] = i
		}
		return 0, nil
	})
}

// Negative: the worker parameter owns per-worker slots.
func workerOwned(items []int, epoch []int) {
	_, _ = parallel.MapNWorker(2, items, func(w, i, v int) (int, error) {
		epoch[w]++
		return v, nil
	})
}

// Negative: a helper literal's parameters are bound by its caller
// inside the thunk, so they are treated as derived (the fn(i) pattern).
func helperLiteral(items []int, out []int) {
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		set := func(j int) { out[j] = j }
		set(i)
		return v, nil
	})
}

// Negative: thunk-local state is the cell's own.
func localState(items []int) {
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		local := make([]int, 0, 4)
		local = append(local, v)
		sum := 0
		for _, x := range local {
			sum += x
		}
		return sum, nil
	})
}

// Write to a scalar captured from the enclosing function: cells race.
func capturedWrite(items []int) int {
	total := 0
	_, _ = parallel.Map(items, func(i, v int) (int, error) {
		total += v // want "no slot owns it"
		return v, nil
	})
	return total
}
