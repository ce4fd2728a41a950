package tape

import (
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// The process-wide tape cache. A sweep's cells arrive keyed by
// {workload.TapeKey, seed}; the first arrival generates the streams
// live and records them, everyone else waits for the recording and then
// replays it read-only. Results are bit-identical either way — replay
// emits the recorded sequence, and the recording cell's engine consumed
// exactly that sequence — so bit-identity at any -jobs count is
// preserved by construction.
//
// The cache is a memo.Memo: a failed or panicking recording is not
// retained (the cell runs live), and once the retained columns reach
// maxCacheBytes new keys run live without recording (a safety valve for
// unbounded sweeps over distinct workloads; every built-in sweep fits
// comfortably).

// maxCacheBytes bounds the total retained column bytes: about 44 M
// references at ~6.1 bytes each (Tape.Bytes).
const maxCacheBytes = 256 << 20

// cacheKey identifies one recording by content.
type cacheKey struct {
	key  string
	seed int64
}

// The obs mirrors of the cache counters. All increments are per-cell or
// per-build (cold), so mirroring them inline costs one no-op call while
// metrics are off.
var (
	obsLive    = obs.NewCounter("tape.live", "cells", "cells that generated streams live, bypassing the cache")
	obsBuildNs = obs.NewCounter("tape.build_ns", "ns", "host time spent recording tapes")
)

var (
	cache = memo.New[cacheKey, *Tape](memo.Config[*Tape]{
		Name:   "tape",
		Budget: maxCacheBytes,
		Size:   func(t *Tape) int64 { return int64(t.Bytes()) },
		Hits:   obs.NewCounter("tape.hits", "cells", "cells served a shared tape they did not build"),
		Misses: obs.NewCounter("tape.builds", "tapes", "reference tapes recorded"),
		Bytes:  obs.NewGauge("tape.bytes", "bytes", "high-water retained tape column footprint"),
	})

	statLive atomic.Int64
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Builds counts tapes recorded; Hits counts cells served a shared
	// tape they did not build; Live counts cells that ran without a tape
	// (incompatible layout, byte budget reached, or a failed recording).
	Builds, Hits, Live int64
	// Bytes is the retained column footprint.
	Bytes int64
}

// CacheStats returns a snapshot of the process-wide cache counters.
func CacheStats() Stats {
	s := cache.Stats()
	return Stats{
		Builds: s.Misses,
		Hits:   s.Hits,
		Live:   statLive.Load(),
		Bytes:  s.Bytes,
	}
}

// ResetCache drops every cached tape and zeroes the counters. It must
// not run while a cell is recording; tests call it between runs.
func ResetCache() {
	cache.Reset()
	statLive.Store(0)
}

// StreamsFor returns the reference streams for one cell's run of w at
// seed, under the cell's allocation layout lay (as captured by
// Layout.Note during Setup). Cells share one recording per {TapeKey,
// seed}; a layout the tape cannot be replayed under, a full byte
// budget or a failed recording falls back to live generation, emitting
// the identical sequence either way.
func StreamsFor(w workload.Workload, seed int64, lay *Layout) []cpu.Stream {
	key := cacheKey{key: w.TapeKey(), seed: seed}
	t, err := cache.Do(key, func() (*Tape, error) { return record(key, w, seed, lay), nil })
	if err == nil {
		if ss, err := t.Streams(lay); err == nil {
			return ss
		}
	}
	statLive.Add(1)
	obsLive.Add(1)
	return w.Streams(seed)
}

// record drains w's live streams into a tape, timing the build.
func record(key cacheKey, w workload.Workload, seed int64, lay *Layout) *Tape {
	sp := obs.Span2("tape", key.key)
	start := wallclock.Now()
	t := Record(w.Streams(seed), *lay)
	sp.End()
	obsBuildNs.Add(wallclock.Since(start).Nanoseconds())
	return t
}
