package system

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Sweeps re-derive the same selection over and over: every sweep point
// that varies only evaluation-side knobs (HBM frequency scale, repeated
// Compare passes) profiles to the same bytes and would retrain the same
// model to the same mapping. The cache memoizes selections process-wide,
// keyed strictly by the content the selection is a pure function of —
// the selector and its tuning, the profile bytes, and (for
// the DL selector) the delta trace bytes — so a hit returns exactly what
// a fresh computation would, and anything that could change the result
// (a different profiling interleaving, the guard ablation) changes the
// key instead of going stale.

// selKey identifies one selection computation by content.
type selKey struct {
	kind     Kind
	clusters int
	dl       cluster.DLOptions
	noGuard  bool
	profFP   uint64
	deltaFP  uint64
}

// selections is unbudgeted: a Selection is a few maps of shared
// mapping pointers, and a sweep has at most a few hundred distinct keys.
var selections = memo.New[selKey, *cluster.Selection](memo.Config[*cluster.Selection]{
	Name:   "select",
	Hits:   obs.NewCounter("select.cache_hits", "hits", "mapping selections served from the process-wide cache"),
	Misses: obs.NewCounter("select.cache_misses", "misses", "mapping selections computed fresh"),
})

// cachedSelection returns the selection for o.Kind on the given profile
// and delta trace, computing it at most once per process per content
// key. The returned Selection is shared — callers must treat it as
// immutable (installSelection only reads it).
func cachedSelection(o Options, prof profile.Profile, deltas []trace.DeltaSample) (*cluster.Selection, error) {
	key := selKey{
		kind:     o.Kind,
		clusters: o.Clusters,
		noGuard:  o.NoGuard,
		profFP:   prof.Fingerprint(),
	}
	if o.Kind == SDMBSMDL {
		key.dl = o.DL
		key.deltaFP = profile.FingerprintDeltas(deltas)
	}
	return selections.Do(key, func() (*cluster.Selection, error) {
		defer obs.Span2("select", o.Kind.String()).End()
		guard := cluster.Guard(!o.NoGuard)
		var s cluster.Selection
		var err error
		switch o.Kind {
		case SDMBSM:
			s, err = cluster.SelectSingle(prof, geom.Default(), guard)
		case SDMBSMML:
			s, err = cluster.SelectKMeans(prof, o.Clusters, geom.Default(), guard)
		case SDMBSMDL:
			s, err = cluster.SelectDL(prof, deltas, o.Clusters, geom.Default(), o.DL, guard)
		default:
			err = fmt.Errorf("system: %s selects no per-variable mapping", o.Kind)
		}
		return &s, err
	})
}
