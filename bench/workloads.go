package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/stats"
	"repro/sdam"
)

// workloadSpec is one benchmark workload: a batch job submitted by one
// client in a closed loop, so the benchmark reports the work a
// repetition completes per second at a stated input size. build is the
// repetition's set-up — every step before measuring starts — and returns
// the job the repetition then runs.
type workloadSpec struct {
	name, why string
	paper     paperRef
	build     func(seed int64, tiny bool) (func() childResult, error)
}

// paperRef is the published speed-up a workload's sim_speedup_geomean is
// printed beside (EXPERIMENTS.md quotes the paper's numbers).
type paperRef struct {
	figure    string
	low, high float64
}

// workloads is the catalog, in report order. Each entry says why it is
// in the benchmark: which layers it stresses and which it bypasses.
var workloads = []workloadSpec{
	{
		name:  "paper-all",
		why:   "every paper figure and ablation (sdamsim -quick all): the user's job mixes every layer, and figures share profiles, tapes and selections",
		paper: paperRef{"Fig 15 accelerator average", 2.58, 2.58},
		build: buildPaperAll,
	},
	{
		name:  "sweep-accel",
		why:   "8 kernels x 5 configs on the accelerator: every reference goes external and no cell trains, so engine, vm, memctrl, amu, hbm and tape do the work",
		paper: paperRef{"Fig 15 accelerator average", 2.58, 2.58},
		build: func(seed int64, tiny bool) (func() childResult, error) {
			return sweep{
				benches: accelSet(tiny),
				opts:    seededOptions(sdam.AcceleratorEngine(4), seed),
				kinds:   sweepKinds,
				num:     sdam.SDMBSMML,
			}.run, nil
		},
	},
	{
		name:  "sweep-cpu-wb",
		why:   "19 proxies and 8 kernels x 5 configs on the write-back CPU: the L1 filter, MSHR stalls and the kernels' dirty write-backs put writes beside reads",
		paper: paperRef{"Fig 12a SDM+BSM+ML", 1.16, 1.27},
		build: func(seed int64, tiny bool) (func() childResult, error) {
			benches, err := cpuSet(cpuRefs, tiny)
			if err != nil {
				return nil, err
			}
			eng := sdam.CPUEngine(4)
			eng.WriteBack = true
			return sweep{benches: benches, opts: seededOptions(eng, seed), kinds: sweepKinds, num: sdam.SDMBSMML}.run, nil
		},
	},
	{
		name:  "select-dl",
		why:   "9 of those 27 benchmarks x {BS+DM, ML, DL}: every selection misses the cache, so profiling, k-means and DL training do most of the work",
		paper: paperRef{"Fig 12a SDM+BSM+DL", 1.33, 1.43},
		build: func(seed int64, tiny bool) (func() childResult, error) {
			benches, err := selectSet(tiny)
			if err != nil {
				return nil, err
			}
			opts := seededOptions(sdam.CPUEngine(4), seed)
			opts.DL = dlOptions(tiny)
			return sweep{
				benches: benches,
				opts:    opts,
				kinds:   []sdam.Kind{sdam.BSDM, sdam.SDMBSMML, sdam.SDMBSMDL},
				num:     sdam.SDMBSMDL,
			}.run, nil
		},
	},
}

// findWorkload returns the named catalog entry.
func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sweepKinds are the configurations both sweeps run: the baseline, the
// two global mappings, and SDAM with one mapping per application and per
// variable (K-Means). No cell trains a DL model.
var sweepKinds = []sdam.Kind{sdam.BSDM, sdam.BSBSM, sdam.BSHM, sdam.SDMBSM, sdam.SDMBSMML}

// seededOptions derives the two program inputs from the benchmark seed;
// seed 0 gives the simulator's own defaults (1 and 2).
func seededOptions(eng sdam.EngineConfig, seed int64) sdam.Options {
	return sdam.Options{Engine: eng, ProfileSeed: 2*seed + 1, EvalSeed: 2*seed + 2}
}

// References per benchmark in one repetition of the sweeps, sized so a
// repetition takes about a second: many short repetitions give a median
// that host noise moves less than a few long ones.
const (
	accelRefs = 200_000
	cpuRefs   = 40_000
)

// accelSet is sweep-accel's input: the kernels at four times their
// default problem size.
func accelSet(tiny bool) []sdam.Workload {
	if tiny {
		return kernelSet(sdam.KernelOptions{MaxRefs: 20_000})
	}
	return kernelSet(sdam.KernelOptions{Scale: 4, MaxRefs: accelRefs})
}

// kernelSet builds the eight data-intensive kernels in sdam.KernelNames
// order.
func kernelSet(opts sdam.KernelOptions) []sdam.Workload {
	ctors := []func(sdam.KernelOptions) sdam.Workload{
		sdam.NewBFS, sdam.NewPageRank, sdam.NewSSSP, sdam.NewHashJoin,
		sdam.NewMergeJoin, sdam.NewKMeans, sdam.NewHNSW, sdam.NewIVFPQ,
	}
	out := make([]sdam.Workload, len(ctors))
	for i, c := range ctors {
		out[i] = c(opts)
	}
	return out
}

// proxySet builds the 19 Table 1 proxies at refs references each.
func proxySet(refs int) ([]sdam.Workload, error) {
	var out []sdam.Workload
	for _, name := range sdam.ProxyNames() {
		w, err := sdam.NewProxy(name, sdam.ProxyOptions{Refs: refs})
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// cpuSet is the proxies and the kernels at refs references each (0
// means their default sizes). The proxies never store; the kernels do.
func cpuSet(refs int, tiny bool) ([]sdam.Workload, error) {
	if tiny {
		refs = 4_000
	}
	proxies, err := proxySet(refs)
	if err != nil {
		return nil, err
	}
	return append(proxies, kernelSet(sdam.KernelOptions{MaxRefs: refs})...), nil
}

// selectSet is every third benchmark of the proxies and kernels at their
// default sizes: 9 of the 27, each trained once per repetition.
func selectSet(tiny bool) ([]sdam.Workload, error) {
	all, err := cpuSet(0, tiny)
	var out []sdam.Workload
	for i := 0; i < len(all); i += 3 {
		out = append(out, all[i])
	}
	return out, err
}

// dlOptions is the DL selector's training budget: the simulator's
// default, or a few steps over a few windows at the tiny size.
func dlOptions(tiny bool) sdam.DLOptions {
	if tiny {
		return sdam.DLOptions{Steps: 8, MaxWindows: 8}
	}
	return sdam.DLOptions{}
}

// sweep runs every benchmark under every configuration through
// sdam.Compare, one benchmark at a time, as sdambench does.
type sweep struct {
	benches []sdam.Workload
	opts    sdam.Options
	kinds   []sdam.Kind // kinds[0] is BS+DM, the speed-up baseline
	num     sdam.Kind   // the configuration sim_speedup_geomean reports
}

func (s sweep) run() childResult {
	var r childResult
	h := fnv.New64a()
	num := 0
	for i, k := range s.kinds {
		if k == s.num {
			num = i
		}
	}
	var speedups []float64
	for _, w := range s.benches {
		res, err := sdam.Compare(w, s.opts, s.kinds)
		r.Attempted += len(s.kinds)
		if err != nil {
			r.fail(countErrors(err), err)
		}
		for _, x := range res {
			hashResult(h, x)
		}
		speedups = append(speedups, res[num].SpeedupOver(res[0]))
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	r.Speedup = stats.GeoMean(speedups)
	return r
}

// countErrors counts the cells behind a joined sdam.Compare error.
func countErrors(err error) int {
	var j interface{ Unwrap() []error }
	if errors.As(err, &j) {
		return len(j.Unwrap())
	}
	return 1
}

// hashResult folds one cell's simulated outcome — engine result and HBM
// statistics, the quantities a speed-only change must leave identical —
// into the running sim_digest.
func hashResult(h hash.Hash64, r sdam.Result) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(r.Workload + "/" + r.Config + "\x00"))
	run := r.Run
	for _, v := range []uint64{math.Float64bits(run.TimeNs), run.References, run.External, run.Writes, run.Prefetches, run.CacheHits, run.Faults} {
		put(v)
	}
	s := r.HBM
	for _, v := range []uint64{s.Requests, s.Bytes, s.RowHits, s.RowMisses, s.Refreshes, math.Float64bits(s.LastFinish)} {
		put(v)
	}
	for _, v := range s.ChannelBytes {
		put(v)
	}
	for _, v := range s.ChannelBusy {
		put(math.Float64bits(v))
	}
}

// buildPaperAll prepares every experiment id at quick fidelity. The
// experiments fix their own inputs, so the seed is unused, and quick is
// already the tiny size.
func buildPaperAll(int64, bool) (func() childResult, error) {
	var ids []string
	for _, e := range append(sdam.Experiments(), sdam.AblationExperiments()...) {
		ids = append(ids, e.ID)
	}
	return func() childResult {
		var r childResult
		h := fnv.New64a()
		for _, id := range ids {
			rep, err := sdam.RunExperiment(id, true)
			r.Attempted++
			if err != nil {
				r.fail(1, err)
				continue
			}
			r.Attempted += len(rep.Checks)
			for _, c := range rep.Failed() {
				r.fail(1, fmt.Errorf("%s: check failed: %s (%s)", id, c.Claim, c.Got))
			}
			hashReport(h, rep)
			if id == "fig15" {
				sp, err := lastGeomean(rep)
				if err != nil {
					r.fail(1, err)
				}
				r.Speedup = sp
			}
		}
		r.Digest = fmt.Sprintf("%016x", h.Sum64())
		return r
	}, nil
}

// hashReport folds a report's table and check outcomes into the digest.
// fig13's table and check details are host wall-clock timings, so only
// its check verdicts count.
func hashReport(h hash.Hash64, rep *sdam.Report) {
	timed := rep.ID == "fig13"
	h.Write([]byte(rep.ID + "\x00"))
	if !timed {
		for _, row := range append([][]string{rep.Table.Header}, rep.Table.Rows...) {
			for _, cell := range row {
				h.Write([]byte(cell + "\x00"))
			}
		}
	}
	for _, c := range rep.Checks {
		got := c.Got
		if timed {
			got = ""
		}
		h.Write([]byte(fmt.Sprintf("%s\x00%t\x00%s\x00", c.Claim, c.Pass, got)))
	}
}

// lastGeomean reads the speed-up table's geomean row at its last (most
// capable) configuration.
func lastGeomean(rep *sdam.Report) (float64, error) {
	for _, row := range rep.Table.Rows {
		if len(row) > 1 && row[0] == "geomean" {
			return strconv.ParseFloat(row[len(row)-1], 64)
		}
	}
	return 0, fmt.Errorf("%s: no geomean row", rep.ID)
}
