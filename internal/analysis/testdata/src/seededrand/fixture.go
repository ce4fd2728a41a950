// Package fixture exercises sdamvet/seededrand. Lines with a trailing
// want comment (as matched by the test harness) must produce a seededrand diagnostic whose
// message contains substr; every other line must stay silent.
package fixture

import (
	"math/rand"
	"time"
)

// Global generator draws: nondeterministic under the parallel harness.
func globalDraws() (int64, float64) {
	a := rand.Int63()   // want "global rand.Int63"
	b := rand.Float64() // want "global rand.Float64"
	return a, b
}

// Host wall clock in simulation code.
func timing() time.Duration {
	start := time.Now() // want "time.Now reads the host wall clock"
	work()
	return time.Since(start) // want "time.Since reads the host wall clock"
}

func work() {}

// Negative: the sanctioned idiom — a locally seeded generator.
func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Negative: constructing time values (not reading the clock) is fine.
func fixedInstant() time.Time {
	return time.Unix(0, 0).Add(3 * time.Second)
}
