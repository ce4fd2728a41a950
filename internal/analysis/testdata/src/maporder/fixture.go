// Package fixture exercises sdamvet/maporder. Lines with a trailing
// want comment (as matched by the test harness) must produce a maporder diagnostic whose
// message contains substr; every other line must stay silent.
package fixture

import (
	"fmt"
	"sort"
)

// Plain assignment to outer variables: the PR-1 modal-VID selection.
func modalPick(counts map[int]int) (int, int) {
	modal, best := -1, 0
	for vid, n := range counts {
		if n > best {
			modal, best = vid, n // want "iteration-order-dependent assignment"
		}
	}
	return modal, best
}

// Output directly from iteration order.
func printAll(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "call with visible effects"
	}
}

// Early exit picks an iteration-order-dependent element.
func anyKey(m map[int]int) int {
	for k := range m {
		return k // want "return inside range over a map"
	}
	return -1
}

// Collected but never sorted before use.
func keysUnsorted(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "never sorted before use"
	}
	return out
}

// Float accumulation does not commute bit-identically.
func sumFloats(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "non-integer accumulation"
	}
	return total
}

// Negative: integer accumulation commutes.
func countLarge(m map[int]int) int {
	n := 0
	for _, v := range m {
		if v > 10 {
			n++
		}
	}
	return n
}

// Negative: keyed element writes commute.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Negative: the collect-then-sort idiom.
func keysSorted(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Negative: delete during iteration is explicitly sanctioned by the
// spec and order-insensitive here.
func prune(m map[int]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}
