// Package wallclock mirrors the tree's internal/wallclock: the one
// package seededrand skips, so its host-clock reads must stay silent.
package wallclock

import "time"

func Now() time.Time { return time.Now() }

func Since(t time.Time) time.Duration { return time.Since(t) }
