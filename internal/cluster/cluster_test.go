package cluster

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
)

// buildProfile creates a collector with nVars variables, each accessed
// with its own stride, and returns the profile and delta trace.
func buildProfile(t testing.TB, strides []int, refsPer int) (profile.Profile, []trace.DeltaSample) {
	t.Helper()
	c := trace.NewCollector(0)
	base := vm.VA(1) << 32
	for i := range strides {
		c.NoteAlloc(siteName(i), base+vm.VA(i)<<26, 16<<20)
	}
	// Interleave accesses round-robin so deltas carry per-variable
	// transitions and the trace mixes VIDs like a real run.
	idx := make([]int, len(strides))
	for r := 0; r < refsPer; r++ {
		for v, s := range strides {
			va := base + vm.VA(v)<<26 + vm.VA(idx[v]*s*geom.LineBytes)
			pa := geom.LineAddr(uint64(v)<<20 + uint64(idx[v]*s))
			c.Record(trace.Access{VA: va, PA: pa})
			idx[v]++
		}
	}
	return profile.FromCollector("synth", c), c.Deltas()
}

func siteName(i int) string { return string(rune('a'+i)) + ".c:42" }

func TestSelectKMeansGroupsEqualStrides(t *testing.T) {
	// Variables 0,2 stride 1; variables 1,3 stride 16. k=2 must pair
	// them and give both members of a pair the same mapping.
	p, _ := buildProfile(t, []int{1, 16, 1, 16}, 400)
	sel, err := SelectKMeans(p, 2, geom.Default(), Guarded)
	if err != nil {
		t.Fatal(err)
	}
	if sel.MappingsUsed() != 2 {
		t.Fatalf("mappings used = %d", sel.MappingsUsed())
	}
	if sel.VarCluster[0] != sel.VarCluster[2] || sel.VarCluster[1] != sel.VarCluster[3] {
		t.Fatalf("clusters: %v", sel.VarCluster)
	}
	if sel.VarCluster[0] == sel.VarCluster[1] {
		t.Fatal("different strides merged")
	}
	if sel.VarMapping[0] != sel.VarMapping[2] {
		t.Fatal("same cluster, different mapping pointers")
	}
	if sel.ProfilingTime <= 0 {
		t.Fatal("profiling time not recorded")
	}
}

func TestSelectedMappingSpreadsItsStride(t *testing.T) {
	p, _ := buildProfile(t, []int{16}, 800)
	sel, err := SelectKMeans(p, 1, geom.Default(), Guarded)
	if err != nil {
		t.Fatal(err)
	}
	g := geom.Default()
	m := sel.VarMapping[0]
	channels := map[int]bool{}
	for i := 0; i < 128; i++ {
		ha := g.Decode(geom.LineAddr(m.MapOffset(uint32(i*16) & (1<<geom.OffsetBits - 1))))
		channels[ha.Channel] = true
	}
	if len(channels) < g.Channels/2 {
		t.Fatalf("selected mapping uses only %d channels for its stride", len(channels))
	}
}

func TestSelectKMeansEmptyProfile(t *testing.T) {
	p := profile.Profile{App: "empty"}
	if _, err := SelectKMeans(p, 2, geom.Default(), Guarded); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestSelectSingle(t *testing.T) {
	p, _ := buildProfile(t, []int{1, 16}, 400)
	sel, err := SelectSingle(p, geom.Default(), Guarded)
	if err != nil {
		t.Fatal(err)
	}
	if sel.MappingsUsed() != 1 {
		t.Fatalf("single selection produced %d mappings", sel.MappingsUsed())
	}
	if sel.VarMapping[0] != sel.VarMapping[1] {
		t.Fatal("single selection gave different mappings")
	}
}

func TestSelectDLSeparatesStrides(t *testing.T) {
	p, deltas := buildProfile(t, []int{1, 16}, 600)
	sel, err := SelectDL(p, deltas, 2, geom.Default(), DLOptions{Steps: 200, Seed: 2}, Guarded)
	if err != nil {
		t.Fatal(err)
	}
	if sel.VarCluster[0] == sel.VarCluster[1] {
		t.Fatal("DL selector merged distinct strides")
	}
	if sel.Method != "DL-KMeans" {
		t.Fatalf("method = %q", sel.Method)
	}
}

func TestSelectDLRejectsShortTrace(t *testing.T) {
	p, _ := buildProfile(t, []int{1}, 300)
	if _, err := SelectDL(p, nil, 2, geom.Default(), DLOptions{}, Guarded); err == nil {
		t.Fatal("empty delta trace accepted")
	}
}

// TestSelectDLRejectsNegativeVID pins that a caller-built delta trace
// with a negative VID is an error, not a panic inside the trainer.
func TestSelectDLRejectsNegativeVID(t *testing.T) {
	p, deltas := buildProfile(t, []int{1, 16}, 300)
	deltas = append([]trace.DeltaSample(nil), deltas...)
	deltas[7].VID = -1
	_, err := SelectDL(p, deltas, 2, geom.Default(), DLOptions{Steps: 8, MaxWindows: 8}, Guarded)
	if err == nil || !strings.Contains(err.Error(), "negative VID") {
		t.Fatalf("err = %v, want a negative-VID error", err)
	}
}

func TestDLCostsMoreThanKMeans(t *testing.T) {
	// Fig 13's shape: the DL selector is much slower than plain K-Means.
	p, deltas := buildProfile(t, []int{1, 4, 16, 64}, 500)
	km, err := SelectKMeans(p, 4, geom.Default(), Guarded)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := SelectDL(p, deltas, 4, geom.Default(), DLOptions{Steps: 200}, Guarded)
	if err != nil {
		t.Fatal(err)
	}
	if dl.ProfilingTime <= km.ProfilingTime {
		t.Fatalf("DL (%v) not slower than K-Means (%v)", dl.ProfilingTime, km.ProfilingTime)
	}
}

func TestQualityImprovesWithMoreClusters(t *testing.T) {
	p, _ := buildProfile(t, []int{1, 2, 8, 32, 64, 128}, 300)
	one, err := SelectKMeans(p, 1, geom.Default(), Guarded)
	if err != nil {
		t.Fatal(err)
	}
	six, err := SelectKMeans(p, 6, geom.Default(), Guarded)
	if err != nil {
		t.Fatal(err)
	}
	if q6, q1 := quality(p, six), quality(p, one); q6 >= q1 {
		t.Fatalf("k=6 quality %.5f not better than k=1 %.5f", q6, q1)
	}
}

// quality is the mean squared distance between each variable's BFRV and
// its cluster's mean BFRV: lower means the clusters fit the
// per-variable optima better.
func quality(p profile.Profile, sel Selection) float64 {
	vecs, vids := p.BFRVs()
	sums := map[int]*mapping.BFRV{}
	counts := map[int]int{}
	for i, vid := range vids {
		c := sel.VarCluster[vid]
		if sums[c] == nil {
			sums[c] = &mapping.BFRV{}
		}
		sums[c].Add(vecs[i])
		counts[c]++
	}
	var loss float64
	for i, vid := range vids {
		c := sel.VarCluster[vid]
		mean := *sums[c]
		mean.Scale(1 / float64(counts[c]))
		for j := range mean {
			d := vecs[i][j] - mean[j]
			loss += d * d
		}
	}
	return loss / float64(len(vecs))
}

func TestSelectKMeansAutoFindsPatternCount(t *testing.T) {
	// Six variables in three clean pattern groups: auto-K should land on
	// a small cluster count that still separates the groups.
	p, _ := buildProfile(t, []int{1, 1, 64, 64, 1024, 1024}, 400)
	sel, err := SelectKMeansAuto(p, 6, geom.Default())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Method != "KMeans-auto" {
		t.Fatalf("method = %q", sel.Method)
	}
	// Pairs with the same stride must share a cluster; different strides
	// must not collapse into one.
	if sel.VarCluster[0] != sel.VarCluster[1] || sel.VarCluster[2] != sel.VarCluster[3] {
		t.Fatalf("same-pattern pairs split: %v", sel.VarCluster)
	}
	if sel.VarCluster[0] == sel.VarCluster[2] && sel.VarCluster[2] == sel.VarCluster[4] {
		t.Fatal("all patterns merged")
	}
	if _, err := SelectKMeansAuto(profile.Profile{App: "empty"}, 4, geom.Default()); err == nil {
		t.Fatal("empty profile accepted")
	}
}
