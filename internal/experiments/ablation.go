package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cmt"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/mapping"
	"repro/internal/rowguard"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workload"
)

// The ablation experiments quantify the design choices DESIGN.md calls
// out. They extend the paper's evaluation rather than reproducing a
// specific figure.

// AblChunkSize regenerates §4's chunk-size trade-off: crossbar width,
// CMT storage, and worst-case internal fragmentation as the chunk size
// sweeps from 256 KB to 16 MB at the paper's 128 GB sizing.
func AblChunkSize(Scale) (*Report, error) {
	r := &Report{ID: "abl-chunk", Title: "chunk-size trade-off: CMT storage vs fragmentation (128 GB socket)"}
	r.Table.Header = []string{"chunk", "offset bits", "config bits", "CMT KB", "worst frag %"}
	const capacityBytes = 128 << 30
	type row struct {
		kb, frag float64
	}
	var first, last row
	for shift := 18; shift <= 24; shift++ { // 256 KB .. 16 MB
		chunkBytes := int64(1) << shift // int64: 128 GB overflows a 32-bit int
		offsetBits := shift - geom.LineShift
		cfgBits := offsetBits * bitsFor(offsetBits)
		nChunks := capacityBytes / chunkBytes
		l1 := nChunks * cmt.EntryBits
		l2 := int64(cmt.MaxMappings * cfgBits)
		kb := float64(l1+l2) / 8 / 1000
		// Worst-case internal fragmentation: one partial chunk per
		// concurrently used mapping.
		frag := float64(cmt.MaxMappings*chunkBytes) / capacityBytes * 100
		r.Table.Add(fmt.Sprintf("%dKB", chunkBytes>>10), offsetBits, cfgBits, kb, frag)
		if shift == 18 {
			first = row{kb, frag}
		}
		last = row{kb, frag}
	}
	r.AddCheck("smaller chunks cost CMT storage, larger chunks cost fragmentation",
		first.kb > last.kb && first.frag < last.frag,
		fmt.Sprintf("256KB: %.0fKB/%.2f%% vs 16MB: %.0fKB/%.2f%%", first.kb, first.frag, last.kb, last.frag))
	r.Notes = append(r.Notes, "the paper picks 2MB: 67KB of CMT and 0.4% worst-case fragmentation at 128GB")
	return r, nil
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// AblCMT compares the flat and two-level CMT organizations across socket
// capacities, the §5.3 storage argument as a sweep.
func AblCMT(Scale) (*Report, error) {
	r := &Report{ID: "abl-cmt", Title: "CMT organization: two-level vs flat across capacities"}
	r.Table.Header = []string{"capacity GB", "chunks", "two-level KB", "flat KB", "ratio"}
	var worst float64
	for _, gb := range []int{8, 32, 128, 512} {
		nChunks := int(int64(gb) << 30 / geom.ChunkBytes)
		s := cmt.StorageBits(nChunks)
		ratio := s.FlatKB / s.TotalKB
		r.Table.Add(gb, nChunks, s.TotalKB, s.FlatKB, ratio)
		if ratio > worst {
			worst = ratio
		}
	}
	r.AddCheck("two-level wins by a growing factor (≥7x at 128GB)", worst >= 7,
		fmt.Sprintf("best ratio %.1fx", worst))
	return r, nil
}

// ablClustersKs is the cluster-budget sweep; K = 0 is the BS+DM
// baseline.
var ablClustersKs = []int{0, 1, 2, 4, 8}

func ablClustersCells(s Scale) []cell {
	w := workload.NewStrideCopy([]int{1, 32, 1024, 4096}, s.refs(4_000, 20_000), 512<<20)
	cells := make([]cell, len(ablClustersKs))
	for i, k := range ablClustersKs {
		o := system.Options{Kind: system.BSDM, Engine: cpu.AcceleratorConfig(4)}
		if k > 0 {
			o.Kind, o.Clusters = system.SDMBSMML, k
		}
		cells[i] = cell{ws: []workload.Workload{w}, o: o}
	}
	return cells
}

// AblClusters sweeps the cluster budget K for the K-Means selector on a
// mixed-stride workload: more clusters capture more distinct patterns
// until the pattern count saturates.
func AblClusters(s Scale) (*Report, error) {
	r := &Report{ID: "abl-clusters", Title: "mapping-cluster budget: speedup vs K"}
	r.Table.Header = []string{"K", "speedup vs BS+DM", "mappings used"}
	results, err := runCells(ablClustersCells(s))
	if err != nil {
		return nil, err
	}
	base := results[0]
	var speedups []float64
	for i, k := range ablClustersKs[1:] {
		res := results[i+1]
		sp := res.SpeedupOver(base)
		used := 0
		if res.Selection != nil {
			used = res.Selection.MappingsUsed()
		}
		r.Table.Add(k, sp, used)
		speedups = append(speedups, sp)
	}
	r.AddCheck("K=4 (one cluster per pattern) beats K=1",
		speedups[2] > speedups[0], fmt.Sprintf("%.2fx vs %.2fx", speedups[2], speedups[0]))
	r.AddCheck("K=8 adds nothing over K=4 (patterns saturate)",
		speedups[3] <= speedups[2]*1.1, fmt.Sprintf("%.2fx vs %.2fx", speedups[3], speedups[2]))
	return r, nil
}

// ablMSHRSweep is the outstanding-miss budgets AblMSHR sweeps.
var ablMSHRSweep = []int{2, 8, 32, 64}

// ablMSHRCells flattens (MSHR budget × {baseline, SDAM}) into
// independent cells.
func ablMSHRCells(s Scale) []cell {
	w := apps.NewKMeansApp(apps.Options{MaxRefs: s.refs(15_000, 60_000)})
	var cells []cell
	for _, m := range ablMSHRSweep {
		eng := cpu.AcceleratorConfig(4)
		eng.MSHRs = m
		cells = append(cells,
			cell{ws: []workload.Workload{w}, o: system.Options{Kind: system.BSDM, Engine: eng}},
			cell{ws: []workload.Workload{w}, o: system.Options{Kind: system.SDMBSMML, Clusters: 4, Engine: eng}})
	}
	return cells
}

// AblMSHR sweeps the engine's outstanding-miss budget: SDAM's benefit
// grows with memory-level parallelism, which is the mechanism behind the
// accelerator-beats-CPU result (§7.4).
func AblMSHR(s Scale) (*Report, error) {
	r := &Report{ID: "abl-mshr", Title: "memory-level parallelism: SDAM gain vs outstanding-miss window"}
	r.Table.Header = []string{"MSHRs", "BS+DM ns", "SDAM ns", "speedup"}
	results, err := runCells(ablMSHRCells(s))
	if err != nil {
		return nil, err
	}
	var gains []float64
	for i, mshrs := range ablMSHRSweep {
		base, res := results[2*i], results[2*i+1]
		sp := res.SpeedupOver(base)
		r.Table.Add(mshrs, base.Run.TimeNs, res.Run.TimeNs, sp)
		gains = append(gains, sp)
	}
	r.AddCheck("SDAM gain grows with the miss window (the accelerator effect)",
		gains[len(gains)-1] > gains[0], fmt.Sprintf("%.2fx at 2 MSHRs -> %.2fx at 64", gains[0], gains[len(gains)-1]))
	return r, nil
}

// ablGuardCells lists, per kernel, the baseline, the guarded selection
// and the raw one. The guard is a per-run option, so all cells fan out
// together.
func ablGuardCells(s Scale) []cell {
	opts := apps.Options{MaxRefs: s.refs(15_000, 50_000)}
	eng := cpu.AcceleratorConfig(4)
	var cells []cell
	for _, w := range []workload.Workload{apps.NewPageRank(opts), apps.NewSSSP(opts), apps.NewKMeansApp(opts)} {
		one := []workload.Workload{w}
		cells = append(cells,
			cell{ws: one, o: system.Options{Kind: system.BSDM, Engine: eng}},
			cell{ws: one, o: system.Options{Kind: system.SDMBSMML, Clusters: 4, Engine: eng}},
			cell{ws: one, o: system.Options{Kind: system.SDMBSMML, Clusters: 4, Engine: eng, NoGuard: true}})
	}
	return cells
}

// AblGuard quantifies the do-no-harm selection guard: the same
// per-variable selection with and without the measured replay check.
// Without the guard, BFRV-derived mappings are installed even when they
// do not beat the boot default, perturbing allocation grouping for
// nothing (or worse).
func AblGuard(s Scale) (*Report, error) {
	r := &Report{ID: "abl-guard", Title: "do-no-harm selection guard: guarded vs raw BFRV mappings"}
	r.Table.Header = []string{"kernel", "guarded speedup", "raw speedup"}
	cells := ablGuardCells(s)
	res, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var guarded, raw []float64
	for i := 0; i < len(cells); i += 3 {
		base, on, off := res[i], res[i+1], res[i+2]
		gOn := on.SpeedupOver(base)
		gOff := off.SpeedupOver(base)
		r.Table.Add(cells[i].ws[0].Name(), gOn, gOff)
		guarded = append(guarded, gOn)
		raw = append(raw, gOff)
	}
	r.AddCheck("the guard stays within a few percent of raw selections on friendly kernels",
		stats.GeoMean(guarded) >= stats.GeoMean(raw)*0.95,
		fmt.Sprintf("guarded %.2fx vs raw %.2fx", stats.GeoMean(guarded), stats.GeoMean(raw)))
	r.Notes = append(r.Notes,
		"the guard's value is the losses it prevents (raw mappings can regress badly on interleave-"+
			"friendly traffic); its cost is a small slice of peak when the raw mapping happens to win")
	return r, nil
}

// ablCoRunMixes are the co-run mixes: one stride-copy app per stride.
var ablCoRunMixes = [][]int{{32}, {32, 128}, {32, 128, 1024}, {32, 128, 1024, 4096}}

// ablCoRunCells flattens (mix × {baseline, SDAM}) into independent
// co-run cells.
func ablCoRunCells(s Scale) []cell {
	refs := s.refs(3_000, 12_000)
	eng := cpu.AcceleratorConfig(4)
	var cells []cell
	for _, strides := range ablCoRunMixes {
		ws := make([]workload.Workload, len(strides))
		for i, st := range strides {
			ws[i] = workload.NewStrideCopy([]int{st, st}, refs, 256<<20)
		}
		cells = append(cells,
			cell{ws: ws, corun: true, o: system.Options{Kind: system.BSDM, Engine: eng}},
			cell{ws: ws, corun: true, o: system.Options{Kind: system.SDMBSMML, Clusters: 4, Engine: eng}})
	}
	return cells
}

// AblCoRun sweeps the number of co-running applications sharing one
// machine: per-application SDAM selections install into the single CMT,
// and the speedup over the co-run BS+DM baseline holds as the mix grows
// — the multi-programmed scenario of §3's experiment 2.
func AblCoRun(s Scale) (*Report, error) {
	r := &Report{ID: "abl-corun", Title: "co-running applications sharing one CMT"}
	r.Table.Header = []string{"apps", "mix", "SDAM speedup", "CMT mappings"}
	results, err := runCells(ablCoRunCells(s))
	if err != nil {
		return nil, err
	}
	var speedups []float64
	for i, strides := range ablCoRunMixes {
		base, res := results[2*i], results[2*i+1]
		labels := make([]string, len(strides))
		for j, st := range strides {
			labels[j] = fmt.Sprintf("s%d", st)
		}
		sp := res.SpeedupOver(base)
		r.Table.Add(len(strides), fmt.Sprint(labels), sp, res.MappingsInstalled)
		speedups = append(speedups, sp)
	}
	r.AddCheck("SDAM keeps winning as the co-run mix grows",
		speedups[len(speedups)-1] > 1.5, fmt.Sprintf("%.2fx at 4 apps", speedups[len(speedups)-1]))
	return r, nil
}

// AblRowGuard reports the capacity overhead of §4's row-hammer guard
// rows for representative mapping classes, and verifies isolation.
func AblRowGuard(Scale) (*Report, error) {
	r := &Report{ID: "abl-rowguard", Title: "row-hammer guard rows: capacity overhead by mapping class"}
	r.Table.Header = []string{"mapping", "guarded pages", "overhead %", "isolated"}
	g := geom.Default()
	cases := []struct {
		name string
		m    *mapping.Linear
	}{
		{"identity (default)", mapping.Identity{}.Linear()},
		{"stride-16 shuffle", mapping.ForStride(16, g)},
		{"stride-1024 shuffle", mapping.ForStride(1024, g)},
	}
	identOverhead := -1.0
	for _, c := range cases {
		over := rowguard.Overhead(c.m, g)
		iso := rowguard.Isolated(c.m, g)
		n := int(over * float64(geom.PagesPerChunk))
		r.Table.Add(c.name, n, over*100, iso)
		if !iso {
			r.AddCheck("isolation holds for "+c.name, false, "guard set incomplete")
		}
		if identOverhead < 0 {
			identOverhead = over
		}
	}
	r.AddCheck("default-mapping guard overhead is the 2-of-16-rows bound (12.5%)",
		identOverhead == 0.125, fmt.Sprintf("%.1f%%", identOverhead*100))
	return r, nil
}

// AblRefresh enables DRAM refresh in the device model and measures the
// uniform bandwidth tax it applies — evidence for leaving it off in the
// comparative studies (it shifts every configuration identically).
func AblRefresh(s Scale) (*Report, error) {
	r := &Report{ID: "abl-refresh", Title: "DRAM refresh: bandwidth tax of TREFI/TRFC"}
	r.Table.Header = []string{"config", "GB/s", "refreshes", "loss %"}
	n := s.refs(30_000, 120_000)
	run := func(t hbm.Timing) hbm.Stats {
		dev := hbm.New(geom.Default(), t)
		pump(dev, mapping.Identity{}, strideAddrs(n, 1))
		return dev.Stats()
	}
	plain := run(hbm.DefaultTiming())
	ref := run(hbm.DefaultTiming().WithRefresh())
	loss := (1 - ref.ThroughputGBs()/plain.ThroughputGBs()) * 100
	r.Table.Add("no refresh", plain.ThroughputGBs(), plain.Refreshes, 0.0)
	r.Table.Add("TREFI=3.9us TRFC=260ns", ref.ThroughputGBs(), ref.Refreshes, loss)
	r.AddCheck("refresh taxes bandwidth by roughly TRFC/TREFI (≈6.7%)",
		loss > 3 && loss < 15, fmt.Sprintf("%.1f%%", loss))
	return r, nil
}
