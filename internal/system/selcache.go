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
// that varies only evaluation-side knobs (the evaluation seed, repeated
// Compare passes) reads the same profiling pass and would retrain the
// same model to the same mapping. The cache memoizes selections
// process-wide, keyed by the key of the pass the selection reads (see
// profKey) plus the selector and its tuning. The pass is a pure function
// of its key — the profile memo rests on that too — so a hit returns
// exactly what a fresh computation would, and anything that could change
// the result (a different profiling interleaving, the guard ablation)
// changes the key instead of going stale.

// selKey identifies one selection computation: the pass it reads and the
// selector that reads it.
type selKey struct {
	pass     profKey
	kind     Kind
	clusters int
	noGuard  bool
	dl       cluster.DLOptions // set only for SDMBSMDL
}

// selections is unbudgeted: a Selection is a few maps of shared
// mapping pointers, and a sweep has at most a few hundred distinct keys.
var selections = memo.New[selKey, *cluster.Selection](memo.Config[*cluster.Selection]{
	Name:   "select",
	Hits:   obs.NewCounter("select.cache_hits", "hits", "mapping selections served from the process-wide cache"),
	Misses: obs.NewCounter("select.cache_misses", "misses", "mapping selections computed fresh"),
})

// cachedSelection returns the selection for o.Kind on the profile and
// delta trace of the pass with key pass, computing it at most once per
// process per key. The returned Selection is shared — callers must treat
// it as immutable (installSelection only reads it).
func cachedSelection(pass profKey, o Options, prof profile.Profile, deltas []trace.DeltaSample) (*cluster.Selection, error) {
	key := selKey{pass: pass, kind: o.Kind, clusters: o.Clusters, noGuard: o.NoGuard}
	if o.Kind == SDMBSMDL {
		key.dl = o.DL
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
