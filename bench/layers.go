package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/amu"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/wallclock"
	"repro/internal/workload"
	"repro/sdam"
)

// layersChild is the child name that runs the layer probes instead of a
// workload.
const layersChild = "layers"

// selectClusters is select-dl's K, sdam.Options' default.
const selectClusters = 32

// layerTotals accumulates host time (ns) and work counts over every
// probed benchmark; the metrics are ratios of these sums.
type layerTotals struct {
	refs, external, lookups, hits, writebacks, tapeBytes int64

	gen, record, replay, seal, run, runSealed, translate, cache int64
	sdam, dm, hm, hbm                                           int64

	selections, profile, kmeans, dl int64
}

// prober times calls into each layer's public functions. Every timed
// call is also a span on the benchmark's own registry, written out as
// trace-layers.json: the program itself gains no instrumentation.
type prober struct {
	seed int64
	tiny bool
	reg  *obs.Registry
	t    layerTotals
	res  childResult
}

// time runs f as one timed call of layer on bench, adding its host time
// to *acc.
func (p *prober) time(acc *int64, layer, bench string, f func() error) error {
	sp := p.reg.Span2(layer, bench)
	start := wallclock.Now()
	err := f()
	*acc += wallclock.Since(start).Nanoseconds()
	sp.End()
	if err != nil {
		return fmt.Errorf("%s on %s: %w", layer, bench, err)
	}
	return nil
}

// check counts one correctness check of the probes, failing it with msg
// when ok is false.
func (p *prober) check(ok bool, bench, msg string) {
	p.res.Attempted++
	if !ok {
		p.res.fail(1, fmt.Errorf("%s: %s", bench, msg))
	}
}

// buildLayers sets up the layer probes on the workloads' own inputs: the
// sweep-accel kernels on the accelerator and the sweep-cpu-wb benchmarks
// on the write-back CPU for the replay probes, select-dl's benchmarks
// for profiling and selection.
func buildLayers(seed int64, tiny bool, out string) (func() childResult, error) {
	cpuBenches, err := cpuSet(cpuRefs, tiny)
	if err != nil {
		return nil, err
	}
	selects, err := selectSet(tiny)
	if err != nil {
		return nil, err
	}
	accel, wb := cpu.AcceleratorConfig(4), cpu.CPUConfig(4)
	wb.WriteBack = true
	kernels := accelSet(tiny)
	if tiny {
		kernels = kernelSet(sdam.KernelOptions{MaxRefs: 4_000})
	}

	return func() childResult {
		p := &prober{seed: seed, tiny: tiny, reg: obs.NewRegistry()}
		p.reg.EnableTracing()
		for _, set := range []struct {
			ws  []sdam.Workload
			eng cpu.Config
		}{{kernels, accel}, {cpuBenches, wb}} {
			for _, w := range set.ws {
				p.res.Attempted++
				if err := p.replay(w, set.eng); err != nil {
					p.res.fail(1, err)
				}
			}
		}
		for _, w := range selects {
			p.res.Attempted++
			if err := p.selection(w); err != nil {
				p.res.fail(1, err)
			}
		}
		p.res.Layers = p.metrics(sdam.Metrics())
		if err := writeFile(filepath.Join(out, "trace-layers.json"), p.reg.WriteTrace); err != nil {
			p.res.fail(1, err)
		}
		return p.res
	}, nil
}

// replay records one tape of w and times each layer over that same
// reference sequence on a freshly booted SDAM machine. The modelled
// caches and devices start empty in every engine run; the address space
// is populated by one untimed run first, so every timed call sees the
// same resident pages.
func (p *prober) replay(w sdam.Workload, eng cpu.Config) error {
	g, timing := geom.Default(), hbm.DefaultTiming()
	k := vm.NewKernel(g.Chunks())
	as := k.NewAddressSpace()
	var lay tape.Layout
	if err := w.Setup(&workload.Env{AS: as, Heap: heap.New(as), OnAlloc: lay.Note}); err != nil {
		return err
	}
	name, seed := w.Name(), 2*p.seed+2 // the sweeps' EvalSeed
	t := &p.t

	var generated int64
	if err := p.time(&t.gen, "workload.gen", name, func() error {
		generated = drain(w.Streams(seed))
		return nil
	}); err != nil {
		return err
	}
	var tp *tape.Tape
	if err := p.time(&t.record, "tape.record", name, func() error {
		tp = tape.Record(w.Streams(seed), lay)
		return nil
	}); err != nil {
		return err
	}
	refs := int64(tp.Refs())
	p.check(refs == generated, name, fmt.Sprintf("tape holds %d refs, generator emitted %d", refs, generated))
	t.refs += refs
	t.tapeBytes += int64(tp.Bytes())
	if err := p.time(&t.replay, "tape.replay", name, func() error {
		ss, err := tp.Streams(&lay)
		drain(ss)
		return err
	}); err != nil {
		return err
	}

	dev := hbm.New(g, timing)
	ctrl := memctrl.NewSDAM(dev, k.Table, amu.New(8))
	runEngine := func(ss []cpu.Stream) (cpu.Result, error) {
		dev.Reset()
		return cpu.New(eng, ctrl, as).Run(ss)
	}
	ss, err := tp.Streams(&lay)
	if err != nil {
		return err
	}
	if _, err := runEngine(ss); err != nil {
		return err
	}
	var res, sealedRes cpu.Result
	if err := p.time(&t.run, "cpu.run", name, func() error {
		ss, err := tp.Streams(&lay)
		if err != nil {
			return err
		}
		res, err = runEngine(ss)
		return err
	}); err != nil {
		return err
	}
	var sealed *tape.Sealed
	if err := p.time(&t.seal, "tape.seal", name, func() (err error) {
		sealed, err = tp.Seal(&lay, as)
		return err
	}); err != nil {
		return err
	}
	if err := p.time(&t.runSealed, "cpu.run_sealed", name, func() (err error) {
		sealedRes, err = runEngine(sealed.Streams())
		return err
	}); err != nil {
		return err
	}
	p.check(res == sealedRes, name, fmt.Sprintf("sealed replay %+v differs from unsealed %+v", sealedRes, res))

	// The same sequence, one layer at a time: translation, the private
	// caches (streams go round-robin onto cores, as in the engine), then
	// the external accesses through each controller and the bare device.
	ss, err = tp.Streams(&lay)
	if err != nil {
		return err
	}
	streams := collect(ss)
	lines := make([][]geom.LineAddr, len(streams))
	for s, refs := range streams {
		lines[s] = make([]geom.LineAddr, len(refs))
	}
	if err := p.time(&t.translate, "vm.translate", name, func() error {
		for s, refs := range streams {
			for i, r := range refs {
				l, err := as.TranslateLine(r.VA)
				if err != nil {
					return err
				}
				lines[s][i] = l
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ext := make([]geom.LineAddr, 0, 2*refs)
	if eng.L1Bytes > 0 {
		l1 := make([]*cache.Cache, eng.Cores)
		for i := range l1 {
			l1[i] = cache.MustNew(eng.L1Bytes, eng.L1Ways)
		}
		if err := p.time(&t.cache, "cache.access", name, func() error {
			for s, refs := range streams {
				c := l1[s%len(l1)]
				for i, r := range refs {
					hit, victim, wb := c.AccessDirty(lines[s][i], r.Write && eng.WriteBack)
					if wb {
						ext = append(ext, victim)
					}
					if !hit {
						ext = append(ext, lines[s][i])
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for _, c := range l1 {
			t.lookups += int64(c.Hits() + c.Misses())
			t.hits += int64(c.Hits())
			t.writebacks += int64(c.Writebacks())
		}
	} else {
		ext = flattenLines(lines)
	}
	p.check(uint64(len(ext)) == res.External, name,
		fmt.Sprintf("probe issued %d external accesses, engine %d", len(ext), res.External))
	t.external += int64(len(ext))

	for _, c := range []struct {
		acc   *int64
		layer string
		ctrl  *memctrl.Controller
	}{
		{&t.sdam, "memctrl.access_sdam", memctrl.NewSDAM(hbm.New(g, timing), k.Table, amu.New(8))},
		{&t.dm, "memctrl.access_dm", memctrl.NewGlobal(hbm.New(g, timing), mapping.Identity{})},
		{&t.hm, "memctrl.access_hm", memctrl.NewGlobal(hbm.New(g, timing), mapping.DefaultXORHash())},
	} {
		if err := p.time(c.acc, c.layer, name, func() error {
			for i, l := range ext {
				if _, err := c.ctrl.Access(float64(i), l); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	bare := hbm.New(g, timing)
	return p.time(&t.hbm, "hbm.access", name, func() error {
		for i, l := range ext {
			bare.AccessLine(float64(i), l)
		}
		return nil
	})
}

// selection times one benchmark's profiling pass and both selectors, at
// select-dl's settings. The child's profile cache is cold for every
// benchmark, so each pass runs fresh.
func (p *prober) selection(w sdam.Workload) error {
	name, t := w.Name(), &p.t
	var prof sdam.Profile
	var deltas sdam.DeltaTrace
	if err := p.time(&t.profile, "profile.pass", name, func() (err error) {
		prof, deltas, err = sdam.ProfileWorkload(w, seededOptions(sdam.CPUEngine(4), p.seed))
		return err
	}); err != nil {
		return err
	}
	if err := p.time(&t.kmeans, "cluster.select_kmeans", name, func() error {
		_, err := sdam.SelectKMeans(prof, selectClusters)
		return err
	}); err != nil {
		return err
	}
	t.selections++
	return p.time(&t.dl, "cluster.select_dl", name, func() error {
		_, err := sdam.SelectDL(prof, deltas, selectClusters, dlOptions(p.tiny))
		return err
	})
}

// metrics turns the totals into the per-layer metrics. cpu.self is the
// engine loop's own time: the replay run minus the time its translation,
// controller and cache calls take when timed alone over the same
// sequence. The DL training numbers come from the program's existing
// dl:train span and nn.train_steps counter.
func (p *prober) metrics(s obs.Snapshot) map[string]float64 {
	t := p.t
	f := func(v int64) float64 { return float64(v) }
	perRef := func(ns int64) float64 { return ratio(f(ns), f(t.refs)) }
	perExt := func(ns int64) float64 { return ratio(f(ns), f(t.external)) }
	perSel := func(ns int64) float64 { return ratio(f(ns), f(t.selections)) / 1e6 }
	var trainNs int64
	for _, sp := range s.Spans {
		if sp.Name == "dl:train" {
			trainNs = sp.TotalNs
		}
	}
	steps := f(counter(s, "nn.train_steps"))
	return map[string]float64{
		"workload.gen_ns_per_ref":   perRef(t.gen),
		"tape.record_ns_per_ref":    perRef(t.record),
		"tape.replay_ns_per_ref":    perRef(t.replay),
		"tape.seal_ns_per_ref":      perRef(t.seal),
		"tape.bytes_per_ref":        perRef(t.tapeBytes),
		"cpu.run_ns_per_ref":        perRef(t.run),
		"cpu.run_sealed_ns_per_ref": perRef(t.runSealed),
		"cpu.self_ns_per_ref":       perRef(t.run - t.translate - t.sdam - t.cache),
		"vm.translate_ns_per_ref":   perRef(t.translate),
		"memctrl.access_sdam_ns":    perExt(t.sdam),
		"memctrl.access_dm_ns":      perExt(t.dm),
		"memctrl.access_hm_ns":      perExt(t.hm),
		"memctrl.self_ns":           perExt(t.sdam - t.hbm),
		"hbm.access_ns":             perExt(t.hbm),
		"cache.access_ns":           ratio(f(t.cache), f(t.lookups)),
		"cache.hit_rate":            ratio(f(t.hits), f(t.lookups)),
		"cache.writebacks_per_kref": 1000 * ratio(f(t.writebacks), f(t.lookups)),
		"profile.pass_ms":           perSel(t.profile),
		"cluster.select_kmeans_ms":  perSel(t.kmeans),
		"cluster.select_dl_ms":      perSel(t.dl),
		"nn.train_ms":               perSel(trainNs),
		"nn.train_steps":            steps,
		"nn.train_us_per_step":      ratio(f(trainNs), steps) / 1e3,
	}
}

// forEachBatch pulls every stream dry in batches, as the engine does,
// handing each batch to f with its stream's index.
func forEachBatch(ss []cpu.Stream, f func(stream int, refs []cpu.Ref)) {
	var buf [256]cpu.Ref
	for i, s := range ss {
		if b, ok := s.(cpu.BatchStream); ok {
			for n := b.NextBatch(buf[:]); n > 0; n = b.NextBatch(buf[:]) {
				f(i, buf[:n])
			}
			continue
		}
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			buf[0] = r
			f(i, buf[:1])
		}
	}
}

// drain consumes every stream and counts the references.
func drain(ss []cpu.Stream) int64 {
	var n int64
	forEachBatch(ss, func(_ int, refs []cpu.Ref) { n += int64(len(refs)) })
	return n
}

// collect drains every stream into its own reference slice.
func collect(ss []cpu.Stream) [][]cpu.Ref {
	out := make([][]cpu.Ref, len(ss))
	forEachBatch(ss, func(i int, refs []cpu.Ref) { out[i] = append(out[i], refs...) })
	return out
}

func flattenLines(lines [][]geom.LineAddr) []geom.LineAddr {
	var out []geom.LineAddr
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}
