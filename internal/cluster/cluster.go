// Package cluster implements the address-mapping selection pipeline of
// §6.2: given a profile (major variables with bit-flip-rate vectors and
// a delta trace), cluster variables with similar access patterns and
// derive one bit-shuffle mapping per cluster.
//
// Two selectors are provided, matching the paper's quality/time
// trade-off:
//
//   - SelectKMeans: K-Means directly on the 15-dim BFRVs (fast, weaker
//     on programs with many major variables).
//   - SelectDL: the DL-assisted K-Means — an embedding-LSTM autoencoder
//     trained with a joint reconstruction+clustering loss, K-Means on
//     the 256-dim (scaled-down here) learned embeddings (slow, higher
//     quality).
//
// Both end the same way (§6.2 step 3): each cluster's mean BFRV picks
// the bit-shuffle mapping for every variable in the cluster.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/kmeans"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/wallclock"
)

// Selection is the outcome of mapping selection for one application.
type Selection struct {
	Method string
	K      int
	// VarMapping gives the chosen bit-shuffle mapping per major VID.
	VarMapping map[int]*mapping.Linear
	// VarCluster gives the cluster index per major VID.
	VarCluster map[int]int
	// ClusterMappings holds one mapping per non-empty cluster.
	ClusterMappings []*mapping.Linear
	// ProfilingTime is the wall-clock cost of the selection itself —
	// the quantity Fig 13 compares.
	ProfilingTime time.Duration
}

// MappingsUsed counts distinct mappings selected.
func (s Selection) MappingsUsed() int { return len(s.ClusterMappings) }

// replaySample measures a mapping by replaying the cluster members'
// sampled offsets (interleaved round-robin, as concurrent variables
// interleave in flight) against the device timing model and returning
// the makespan. Unlike first-order flip statistics, the replay prices
// channel spread, bank conflicts, and row locality together.
func replaySample(m *mapping.Linear, samples [][]uint32, g geom.Geometry) float64 {
	dev := hbm.New(g, hbm.DefaultTiming())
	live := 0
	for _, s := range samples {
		if len(s) > 0 {
			live++
		}
	}
	if live == 0 {
		return 0
	}
	for pos := 0; ; pos++ {
		done := true
		for _, s := range samples {
			if pos < len(s) {
				done = false
				dev.AccessLine(0, geom.Join(0, m.MapOffset(s[pos])))
			}
		}
		if done {
			break
		}
	}
	return dev.Stats().LastFinish
}

// Guard says whether a selector applies the replay-based do-no-harm
// guard (see chooseMapping). Unguarded always uses the raw BFRV-derived
// mapping; it exists solely for the ablation that quantifies the
// guard's value.
type Guard bool

// The two guard settings.
const (
	Guarded   Guard = true
	Unguarded Guard = false
)

// chooseMapping derives the bit-shuffle mapping for a cluster from its
// mean BFRV, but (when guarded) keeps the boot-time identity mapping
// unless the candidate is measurably faster on a replay of the observed
// traffic — flip statistics are first-order and can be fooled by
// correlated bits, and software is free to select any mapping,
// including the default (do-no-harm guard).
func chooseMapping(mean mapping.BFRV, samples [][]uint32, g geom.Geometry, guard Guard, name string) *mapping.Linear {
	candidate := mapping.FromBFRV(mean, g, name)
	if guard == Unguarded {
		return candidate
	}
	ident := mapping.Identity{}.Linear()
	// The two replays build independent devices, so they run
	// concurrently into per-candidate slots; the comparison below is a
	// pure function of their results, so the decision is worker-count
	// independent.
	times, _ := parallel.Map([]*mapping.Linear{ident, candidate}, func(_ int, m *mapping.Linear) (float64, error) {
		return replaySample(m, samples, g), nil
	})
	identTime, candTime := times[0], times[1]
	// Deviating from the default perturbs allocation grouping, so the
	// candidate must clear a margin, not just a tie.
	if identTime == 0 || candTime >= 0.95*identTime {
		return ident
	}
	return candidate
}

// buildSelection converts per-cluster mean BFRVs into mappings and
// builds the VID lookup tables. samples is parallel to vids.
func buildSelection(method string, k int, vids []int, vecs []mapping.BFRV, samples [][]uint32, assign []int, g geom.Geometry, guard Guard) Selection {
	sel := Selection{
		Method:     method,
		K:          k,
		VarMapping: make(map[int]*mapping.Linear, len(vids)),
		VarCluster: make(map[int]int, len(vids)),
	}
	// Mean BFRV and member samples per cluster.
	sums := make([]mapping.BFRV, k)
	counts := make([]int, k)
	memberSamples := make([][][]uint32, k)
	for i, a := range assign {
		sums[a].Add(vecs[i])
		counts[a]++
		if i < len(samples) {
			memberSamples[a] = append(memberSamples[a], samples[i])
		}
	}
	// Each cluster's candidate mapping (and its do-no-harm replays) is
	// independent of the others, so the choices fan out over the worker
	// pool into per-cluster slots.
	chosen := make([]*mapping.Linear, k)
	var live []int
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			live = append(live, c)
		}
	}
	parallel.Map(live, func(_ int, c int) (struct{}, error) {
		mean := sums[c]
		mean.Scale(1 / float64(counts[c]))
		chosen[c] = chooseMapping(mean, memberSamples[c], g, guard, fmt.Sprintf("%s-c%d", method, c))
		return struct{}{}, nil
	})
	// Deduplicate clusters that resolve to the same matrix: the
	// hardware CMT stores one entry per distinct mapping, and merging
	// keeps same-pattern variables in one chunk group (splitting them
	// would only fragment chunks for no hardware difference). The walk
	// is serial in ascending cluster order, so the surviving mapping for
	// each matrix — and ClusterMappings' order — is deterministic.
	clusterMap := make(map[int]*mapping.Linear, k)
	byRows := make(map[[geom.OffsetBits]uint32]*mapping.Linear, k)
	for _, c := range live {
		m := chosen[c]
		if dup, ok := byRows[m.Rows()]; ok {
			clusterMap[c] = dup
			continue
		}
		byRows[m.Rows()] = m
		clusterMap[c] = m
		sel.ClusterMappings = append(sel.ClusterMappings, m)
	}
	for i, vid := range vids {
		sel.VarMapping[vid] = clusterMap[assign[i]]
		sel.VarCluster[vid] = assign[i]
	}
	return sel
}

// SelectKMeans clusters the major variables' BFRVs into at most k
// groups and derives one mapping per group.
func SelectKMeans(p profile.Profile, k int, g geom.Geometry, guard Guard) (Selection, error) {
	start := wallclock.Now()
	vecs, vids := p.BFRVs()
	if len(vecs) == 0 {
		return Selection{}, fmt.Errorf("cluster: profile for %q has no major variables", p.App)
	}
	pts := make([][]float64, len(vecs))
	for i, v := range vecs {
		pts[i] = append([]float64(nil), v[:]...)
	}
	res, err := kmeans.Cluster(pts, k, kmeans.Options{Seed: 1})
	if err != nil {
		return Selection{}, err
	}
	sel := buildSelection("KMeans", len(res.Centroids), vids, vecs, p.MajorSamples(), res.Assignment, g, guard)
	sel.ProfilingTime = wallclock.Since(start)
	return sel, nil
}

// SelectKMeansAuto is SelectKMeans with the cluster count chosen
// automatically by silhouette score, up to maxK — the "judicious"
// K selection §6.2 leaves to the operator, automated.
func SelectKMeansAuto(p profile.Profile, maxK int, g geom.Geometry) (Selection, error) {
	start := wallclock.Now()
	vecs, vids := p.BFRVs()
	if len(vecs) == 0 {
		return Selection{}, fmt.Errorf("cluster: profile for %q has no major variables", p.App)
	}
	pts := make([][]float64, len(vecs))
	for i, v := range vecs {
		pts[i] = append([]float64(nil), v[:]...)
	}
	res, k, err := kmeans.ChooseK(pts, maxK, kmeans.Options{Seed: 1})
	if err != nil {
		return Selection{}, err
	}
	sel := buildSelection("KMeans-auto", k, vids, vecs, p.MajorSamples(), res.Assignment, g, Guarded)
	sel.ProfilingTime = wallclock.Since(start)
	return sel, nil
}

// DLOptions tunes the DL-assisted selector. Zero values pick scaled-down
// defaults; the paper's full-size settings are in nn.PaperConfig and
// Table 2.
type DLOptions struct {
	SeqLen int // window length over the delta trace; paper: 32
	// Steps counts training-sequence presentations (paper: 500k),
	// consumed dlBatch at a time: ceil(Steps/dlBatch) optimizer steps.
	Steps      int
	MaxWindows int // cap on training windows
	Seed       int64
}

// dlBatch is the DL selector's mini-batch: the per-sequence gradients
// of one optimizer step are computed as one four-lane lockstep tile (or
// several concurrent tiles) and reduced in fixed slot order, so the
// result is bit-identical at any -jobs count.
const dlBatch = 4

func (o DLOptions) withDefaults() DLOptions {
	if o.SeqLen <= 0 {
		o.SeqLen = 16
	}
	if o.Steps <= 0 {
		o.Steps = 300
	}
	if o.MaxWindows <= 0 {
		// 256 windows keep every benchmark's selection quality (the
		// cluster assignments and chosen mappings match the 512-window
		// runs on the built-in suite) at half the embedding-sweep cost;
		// the full-figure experiments pin their own larger budgets.
		o.MaxWindows = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SelectDL runs the DL-assisted K-Means pipeline: windows of the (Δ,
// VID) delta trace train the embedding autoencoder under the joint
// objective; per-variable embeddings (mean over the windows the variable
// dominates) are clustered; cluster mean BFRVs pick the mappings.
func SelectDL(p profile.Profile, deltas []trace.DeltaSample, k int, g geom.Geometry, opts DLOptions, guard Guard) (Selection, error) {
	start := wallclock.Now()
	opts = opts.withDefaults()
	vecs, vids := p.BFRVs()
	if len(vecs) == 0 {
		return Selection{}, fmt.Errorf("cluster: profile for %q has no major variables", p.App)
	}
	if len(deltas) < opts.SeqLen {
		return Selection{}, fmt.Errorf("cluster: delta trace too short (%d < %d)", len(deltas), opts.SeqLen)
	}

	// Slice the delta trace into non-overlapping windows, tagging each
	// with its modal VID.
	numVIDs := 0
	for i, d := range deltas {
		if d.VID < 0 {
			return Selection{}, fmt.Errorf("cluster: delta %d has negative VID %d", i, d.VID)
		}
		numVIDs = max(numVIDs, int(d.VID)+1)
	}
	spWindow := obs.StartSpan("dl:window")
	var seqs []nn.Sequence
	var windowVID []int
	for base := 0; base+opts.SeqLen <= len(deltas) && len(seqs) < opts.MaxWindows; base += opts.SeqLen {
		var s nn.Sequence
		counts := map[int]int{}
		for t := 0; t < opts.SeqLen; t++ {
			d := deltas[base+t]
			s.Deltas = append(s.Deltas, d.Delta)
			s.VIDs = append(s.VIDs, int(d.VID))
			counts[int(d.VID)]++
		}
		// Walk VIDs in sorted order so the modal pick — and its
		// tie-break toward the lowest VID — can never depend on map
		// iteration order (this exact loop shipped nondeterministic once;
		// sdamvet/maporder now guards it).
		windowVIDs := make([]int, 0, len(counts))
		for vid := range counts {
			windowVIDs = append(windowVIDs, vid)
		}
		sort.Ints(windowVIDs)
		modal, best := -1, 0
		for _, vid := range windowVIDs {
			if counts[vid] > best {
				modal, best = vid, counts[vid]
			}
		}
		seqs = append(seqs, s)
		windowVID = append(windowVID, modal)
	}
	spWindow.End()

	spTrain := obs.StartSpan("dl:train")
	model, err := nn.NewAutoencoder(nn.DefaultConfig(numVIDs))
	if err != nil {
		return Selection{}, err
	}
	optSteps := (opts.Steps + dlBatch - 1) / dlBatch
	report, err := model.TrainJoint(seqs, nn.TrainOptions{Steps: optSteps, K: k, Seed: opts.Seed, Batch: dlBatch})
	spTrain.End()
	if err != nil {
		return Selection{}, err
	}

	// Per-variable embedding: mean over the windows it dominates. The
	// training report already carries every window's post-training
	// embedding (the vectors its final clustering ran on), so no extra
	// inference sweep is needed.
	spEmbed := obs.StartSpan("dl:embed")
	dim := model.EmbeddingDim()
	varEmb := make(map[int][]float64)
	varWin := make(map[int]int)
	for i := range seqs {
		vid := windowVID[i]
		e := report.Embeddings[i]
		acc, ok := varEmb[vid]
		if !ok {
			acc = make([]float64, dim)
			varEmb[vid] = acc
		}
		for j, v := range e {
			acc[j] += v
		}
		varWin[vid]++
	}
	pts := make([][]float64, len(vids))
	for i, vid := range vids {
		p := make([]float64, dim)
		if acc, ok := varEmb[vid]; ok {
			for j, v := range acc {
				p[j] = v / float64(varWin[vid])
			}
		} else {
			// Variable never dominated a window (rare, cold variable):
			// fall back to its BFRV zero-padded into embedding space so
			// clustering still has a point for it.
			for j := 0; j < len(vecs[i]) && j < dim; j++ {
				p[j] = vecs[i][j]
			}
		}
		pts[i] = p
	}
	spEmbed.End()
	spCluster := obs.StartSpan("dl:kmeans")
	res, err := kmeans.Cluster(pts, k, kmeans.Options{Seed: opts.Seed})
	spCluster.End()
	if err != nil {
		return Selection{}, err
	}
	sel := buildSelection("DL-KMeans", len(res.Centroids), vids, vecs, p.MajorSamples(), res.Assignment, g, guard)
	sel.ProfilingTime = wallclock.Since(start)
	return sel, nil
}

// SelectSingle derives one mapping for the whole application from the
// reference-weighted mean of the major variables' BFRVs — the SDM+BSM
// configuration's per-application selection.
func SelectSingle(p profile.Profile, g geom.Geometry, guard Guard) (Selection, error) {
	start := wallclock.Now()
	majors := p.Majors()
	if len(majors) == 0 {
		return Selection{}, fmt.Errorf("cluster: profile for %q has no major variables", p.App)
	}
	var mean mapping.BFRV
	var total float64
	for _, v := range majors {
		w := float64(v.Refs)
		scaled := v.BFRV
		scaled.Scale(w)
		mean.Add(scaled)
		total += w
	}
	if total > 0 {
		mean.Scale(1 / total)
	}
	var samples [][]uint32
	for _, v := range majors {
		samples = append(samples, v.Sample)
	}
	m := chooseMapping(mean, samples, g, guard, "BSM-app")
	sel := Selection{
		Method:          "Single",
		K:               1,
		VarMapping:      make(map[int]*mapping.Linear, len(majors)),
		VarCluster:      make(map[int]int, len(majors)),
		ClusterMappings: []*mapping.Linear{m},
		ProfilingTime:   wallclock.Since(start),
	}
	for _, v := range majors {
		sel.VarMapping[v.VID] = m
		sel.VarCluster[v.VID] = 0
	}
	return sel, nil
}
