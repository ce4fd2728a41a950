package system

import (
	"repro/internal/cpu"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A Compare over the six configurations runs the *identical* profiling
// pass up to four times: BS+BSM, SDM+BSM, SDM+BSM+ML, and SDM+BSM+DL
// all profile the workload on the same baseline machine with the same
// seed, and the pass is a pure function of the workload's parameters,
// the profiling seed, the engine, and the HBM timing scale. Like the
// selection cache (selcache.go), this cache memoizes the pass
// process-wide under exactly that content key; a hit returns the same
// bytes a fresh pass would. The shared *trace.Collector is
// read-only after the pass (its lazy interval sort is already settled
// by the pass's own attribution), so concurrent cells may consult
// Deltas()/GlobalBFRV() without synchronization.

// profKey identifies one profiling pass by content. Workloads without a
// TapeKey have no content identity and always profile fresh.
type profKey struct {
	tapeKey  string
	seed     int64
	engine   cpu.Config
	hbmScale float64
}

// profPass is one memoized profiling pass.
type profPass struct {
	prof profile.Profile
	col  *trace.Collector
}

// profiles is unbudgeted, like the selection cache: a sweep holds one
// pass per distinct workload and seed, and the collector caps each
// pass's delta trace.
var profiles = memo.New[profKey, profPass](memo.Config[profPass]{
	Name:   "profile",
	Hits:   obs.NewCounter("profile.cache_hits", "hits", "profiling passes served from the process-wide cache"),
	Misses: obs.NewCounter("profile.cache_misses", "misses", "profiling passes that had to run fresh"),
})

// cachedProfile returns the profiling pass for (w, o), running it at
// most once per process per content key. o must already have defaults
// applied.
func cachedProfile(w workload.Workload, o Options) (profile.Profile, *trace.Collector, error) {
	k, ok := w.(workload.TapeKeyer)
	if !ok {
		return profileFresh(w, o)
	}
	key := profKey{
		tapeKey:  k.TapeKey(),
		seed:     o.ProfileSeed,
		engine:   o.Engine,
		hbmScale: o.HBMScale,
	}
	p, err := profiles.Do(key, func() (profPass, error) {
		prof, col, err := profileFresh(w, o)
		return profPass{prof, col}, err
	})
	return p.prof, p.col, err
}
