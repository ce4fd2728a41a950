// Package system composes the full prototype — kernel, allocators, CMT,
// AMU, memory controller, HBM device, and a CPU or accelerator engine —
// and runs workloads under the six system configurations the paper
// evaluates (§7.3):
//
//	BS+DM       fixed default mapping, global
//	BS+BSM      one profile-derived bit-shuffle mapping, global
//	BS+HM       one XOR-hash mapping, global
//	SDM+BSM     SDAM with one mapping per application
//	SDM+BSM+ML  SDAM with per-variable mappings via K-Means
//	SDM+BSM+DL  SDAM with per-variable mappings via DL-assisted K-Means
//
// Configurations that need profiling run the workload once on the
// baseline system with the collector attached (the paper's offline
// profiling pass, with its own input seed), select mappings, and then
// run the evaluation pass on a fresh machine — so profiling and
// evaluation use different inputs exactly as in §7.3's cross-validation.
package system

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/amu"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// Kind names a system configuration.
type Kind int

// The six evaluated configurations.
const (
	BSDM Kind = iota
	BSBSM
	BSHM
	SDMBSM
	SDMBSMML
	SDMBSMDL
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BSDM:
		return "BS+DM"
	case BSBSM:
		return "BS+BSM"
	case BSHM:
		return "BS+HM"
	case SDMBSM:
		return "SDM+BSM"
	case SDMBSMML:
		return "SDM+BSM+ML"
	case SDMBSMDL:
		return "SDM+BSM+DL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the configurations in the paper's reporting order.
var AllKinds = []Kind{BSDM, BSBSM, BSHM, SDMBSM, SDMBSMML, SDMBSMDL}

// NeedsProfiling reports whether the configuration requires an offline
// profiling pass.
func (k Kind) NeedsProfiling() bool { return k != BSDM && k != BSHM }

// Options configures a run.
type Options struct {
	Kind     Kind
	Clusters int // K for the ML/DL selectors; default 32
	// Engine selects the processing-element model; zero value means the
	// 4-core CPU.
	Engine cpu.Config
	// HBMScale divides the memory frequency (Fig 14); default 1.
	HBMScale float64
	// ProfileSeed and EvalSeed are the program inputs for the two passes
	// (different by default, per §7.3).
	ProfileSeed, EvalSeed int64
	// DL tunes the DL selector's training budget.
	DL cluster.DLOptions
	// NoGuard turns off the selectors' do-no-harm guard, so every
	// cluster uses its raw BFRV-derived mapping (the guard ablation).
	NoGuard bool
}

func (o Options) withDefaults() Options {
	if o.Clusters <= 0 {
		o.Clusters = 32
	}
	if o.Engine.Cores == 0 {
		o.Engine = cpu.CPUConfig(4)
	}
	if o.HBMScale <= 0 {
		o.HBMScale = 1
	}
	if o.ProfileSeed == 0 {
		o.ProfileSeed = 1
	}
	if o.EvalSeed == 0 {
		o.EvalSeed = 2
	}
	return o
}

// Result reports one configured run.
type Result struct {
	Config    string
	Workload  string
	Run       cpu.Result
	HBM       hbm.Stats
	Profile   *profile.Profile
	Selection *cluster.Selection
	// ProfilingTime is the offline selection cost (Fig 13); zero for
	// configurations without profiling.
	ProfilingTime time.Duration
	// MappingsInstalled counts live CMT mappings after setup.
	MappingsInstalled int
}

// SpeedupOver returns the wall-clock speedup of r versus a baseline run
// of the same workload.
func (r Result) SpeedupOver(base Result) float64 { return r.Run.SpeedupOver(base.Run) }

// machine bundles one bootable instance. Its programs' address spaces
// and heaps belong to the apps that run on it.
type machine struct {
	kernel *vm.Kernel
	dev    *hbm.Device
	ctrl   *memctrl.Controller
}

// boot builds a machine whose controller applies the fixed global
// mapping, or the CMT+AMU datapath when global is nil, in front of one
// fresh HBM device of the prototype's geometry.
func boot(o Options, global mapping.Mapping) *machine {
	g := geom.Default()
	dev := hbm.New(g, hbm.DefaultTiming().Scale(o.HBMScale))
	k := vm.NewKernel(g.Chunks())
	var ctrl *memctrl.Controller
	if global == nil {
		ctrl = memctrl.NewSDAM(dev, k.Table, amu.New(8))
	} else {
		ctrl = memctrl.NewGlobal(dev, global)
	}
	return &machine{kernel: k, dev: dev, ctrl: ctrl}
}

// app is one program of a run: its workload, its profile and selection
// where the configuration chooses mappings per app, and the address
// space and heap runOn gives it.
type app struct {
	w    workload.Workload
	prof profile.Profile
	sel  *cluster.Selection
	as   *vm.AddressSpace
	heap *heap.Allocator
}

// runOn sets every app up on m and runs them together to completion,
// returning the engine result; col, when set, receives the external
// access trace (the profiling pass). Each app in turn installs its
// selection into the one CMT (exhausting the 256 slots is an error the
// caller must handle by shrinking Clusters), gets its own address space
// and heap, and runs Setup. App i's reference streams for seed+i come
// from the process-wide tape cache: its allocation layout is captured
// during Setup, and the first run of a {workload, seed} records the
// emission once for every later run to replay (rebased onto its own
// layout) — bit-identical to live generation, minus the repeated
// generator work.
func runOn(m *machine, apps []app, o Options, seed int64, col *trace.Collector) (cpu.Result, error) {
	procs := make([]cpu.Proc, len(apps))
	for i := range apps {
		a := &apps[i]
		var policy func(site string) int
		if a.sel != nil {
			siteID, err := installSelection(m.kernel, a.prof, a.sel)
			if err != nil {
				return cpu.Result{}, fmt.Errorf("system: app %s: %w", a.w.Name(), err)
			}
			policy = func(site string) int { return siteID[site] }
		}
		a.as = m.kernel.NewAddressSpace()
		a.heap = heap.New(a.as)
		var lay tape.Layout
		env := &workload.Env{AS: a.as, Heap: a.heap, MapIDFor: policy, Collector: col, OnAlloc: lay.Note}
		if err := a.w.Setup(env); err != nil {
			return cpu.Result{}, fmt.Errorf("system: app %s: %w", a.w.Name(), err)
		}
		procs[i] = cpu.Proc{AS: a.as, Streams: tape.StreamsFor(a.w, seed+int64(i), &lay)}
	}
	eng := cpu.New(o.Engine, m.ctrl, nil)
	eng.Collector = col
	return eng.RunProcs(procs)
}

// Profile runs the workload once on the BS+DM baseline with the profiler
// attached — the paper's offline profiling pass — and returns the
// per-variable profile plus the raw collector (whose delta trace feeds
// the DL selector). The pass is memoized process-wide (see profcache.go):
// configurations that share profiling inputs share one pass and its
// collector, read-only.
func Profile(w workload.Workload, opts Options) (profile.Profile, *trace.Collector, error) {
	return cachedProfile(w, opts.withDefaults())
}

// profileFresh is the uncached profiling pass.
func profileFresh(w workload.Workload, o Options) (profile.Profile, *trace.Collector, error) {
	defer obs.Span2("profile", w.Name()).End()
	statProfPass.Add(1)
	m := boot(o, mapping.Identity{})
	col := trace.NewCollector(0)
	if _, err := runOn(m, []app{{w: w}}, o, o.ProfileSeed, col); err != nil {
		return profile.Profile{}, nil, fmt.Errorf("system: profiling pass: %w", err)
	}
	return profile.FromCollector(w.Name(), col), col, nil
}

// Run executes one workload under one configuration: a co-run of one
// app, which also reports that app's profile and selection. A panic
// anywhere in the run (the workload, the engine, a selector) fails it
// with an error like any other failed run; see containPanic.
func Run(w workload.Workload, opts Options) (res Result, err error) {
	defer containPanic(&err)
	o := opts.withDefaults()
	res = Result{Config: o.Kind.String(), Workload: w.Name()}
	apps, err := evaluate(&res, []workload.Workload{w}, o, "sim", statRuns)
	if apps != nil && o.Kind.NeedsProfiling() {
		// A copy: a pointer into apps would keep the evaluation pass's
		// address space and heap alive as long as the Result.
		prof := apps[0].prof
		res.Profile, res.Selection = &prof, apps[0].sel
	}
	return res, err
}

// CoRun executes several workloads concurrently on one machine — each in
// its own address space, all sharing the memory system and, in the SDAM
// configurations, the single hardware CMT. This is the paper's co-run
// scenario: the 256-mapping budget and the chunk pool are machine-global
// resources the applications divide among themselves (§3 experiment 2,
// §6.2's cluster-budget discussion). Each app installs its own
// selection; nothing dedupes identical mappings across apps.
//
// Per-application profiling and selection run exactly as in Run; the
// Clusters option is the per-application budget. A panic fails the
// co-run with an error, as in Run.
func CoRun(ws []workload.Workload, opts Options) (res Result, err error) {
	defer containPanic(&err)
	o := opts.withDefaults()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	res = Result{Config: o.Kind.String(), Workload: "corun(" + strings.Join(names, "+") + ")"}
	if len(ws) == 0 {
		return res, fmt.Errorf("system: co-run of zero workloads")
	}
	_, err = evaluate(&res, ws, o, "corun", statCoRuns)
	return res, err
}

// evaluate runs ws together on one fresh machine under o.Kind and fills
// res, whose Config and Workload the caller has set: the offline
// profiling and selection where the configuration needs them, the
// evaluation pass under a phase span (counted by done on success), and
// the integrity checks. It returns the apps, with each one's profile and
// selection, once selection has succeeded.
func evaluate(res *Result, ws []workload.Workload, o Options, phase string, done *obs.Counter) ([]app, error) {
	apps := make([]app, len(ws))
	for i, w := range ws {
		apps[i].w = w
	}
	var global mapping.Mapping
	switch o.Kind {
	case BSDM:
		global = mapping.Identity{}
	case BSHM:
		global = mapping.DefaultXORHash()
	}
	if o.Kind.NeedsProfiling() {
		var err error
		if global, res.ProfilingTime, err = selectMappings(apps, o); err != nil {
			return nil, err
		}
	}

	m := boot(o, global)
	sim := obs.Span3(phase, res.Workload, o.Kind.String())
	run, err := runOn(m, apps, o, o.EvalSeed, nil)
	sim.End()
	if err != nil {
		return apps, fmt.Errorf("system: evaluation pass: %w", err)
	}
	res.Run = run
	res.HBM = m.dev.Stats()
	res.MappingsInstalled = m.kernel.Table.LiveMappings()
	done.Add(1)
	flushRunMetrics(res, m)

	// Integrity checks: the run must leave every layer consistent.
	if err := m.dev.CheckConservation(); err != nil {
		return apps, err
	}
	if err := m.kernel.Phys.CheckInvariants(); err != nil {
		return apps, err
	}
	for _, a := range apps {
		if err := a.as.CheckInvariants(); err != nil {
			return apps, err
		}
		if err := a.heap.CheckInvariants(); err != nil {
			return apps, err
		}
	}
	return apps, nil
}

// selectMappings profiles every app (the memoized offline pass) and
// chooses its mappings: for BS+BSM one global mapping from the apps'
// averaged flip rates (the workload-mix profiling of §7.3; over one app,
// exactly its own), otherwise one selection per app. It returns the
// global mapping (nil for the SDAM configurations) and the selection
// time, which excludes the profiling passes.
func selectMappings(apps []app, o Options) (mapping.Mapping, time.Duration, error) {
	cols := make([]*trace.Collector, len(apps))
	for i := range apps {
		var err error
		if apps[i].prof, cols[i], err = cachedProfile(apps[i].w, o); err != nil {
			return nil, 0, err
		}
	}
	start := wallclock.Now()
	if o.Kind == BSBSM {
		var bfrv mapping.BFRV
		for _, col := range cols {
			bfrv.Add(col.GlobalBFRV())
		}
		bfrv.Scale(1 / float64(len(apps)))
		return mapping.FromBFRV(bfrv, geom.Default(), "BSM-global"), wallclock.Since(start), nil
	}
	for i := range apps {
		var err error
		if apps[i].sel, err = cachedSelection(o, apps[i].prof, cols[i].Deltas()); err != nil {
			return nil, 0, err
		}
	}
	return nil, wallclock.Since(start), nil
}

// containPanic turns a panic in the run that defers it into the run's
// error, so a failing sweep cell reports like any other failed cell (an
// error and a partial Result) instead of unwinding through the fan-out
// that runs it.
func containPanic(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("system: run panicked: %v\n%s", p, debug.Stack())
	}
}

// installSelection writes the selection's mappings into the kernel's CMT
// (via add_addr_map) and returns the site→mapping-ID routing table.
func installSelection(k *vm.Kernel, prof profile.Profile, sel *cluster.Selection) (map[string]int, error) {
	siteID := make(map[string]int)
	ident := amu.Identity()
	idOf := make(map[*mapping.Linear]int)
	for _, m := range sel.ClusterMappings {
		cfg, err := amu.ConfigOf(m)
		if err != nil {
			return nil, fmt.Errorf("system: installing mapping %s: %w", m.Name(), err)
		}
		if cfg == ident {
			// An identity-permutation cluster is the boot-time default;
			// routing it to mapping ID 0 keeps its variables in the
			// default chunk group instead of fragmenting allocation.
			idOf[m] = 0
			continue
		}
		id, err := k.AddAddrMap(cfg)
		if err != nil {
			return nil, fmt.Errorf("system: installing mapping %s: %w", m.Name(), err)
		}
		idOf[m] = id
	}
	// Route each major variable's site to its cluster's mapping ID.
	for _, v := range prof.Vars {
		if m, ok := sel.VarMapping[v.VID]; ok && m != nil {
			siteID[v.Site] = idOf[m]
		}
	}
	return siteID, nil
}

// Compare runs the workload under every configuration in kinds and
// returns results in order, all sharing the same seeds and engine.
//
// The configurations are independent — each builds its own machine and
// seeded RNGs — so they fan out over the parallel worker pool when the
// workload supports cloning (every built-in workload does); a workload
// without Clone runs serially. The simulated results are bit-identical
// either way. On failure the error names every configuration that
// failed, and the returned slice still has len(kinds) entries with the
// surviving configurations' results at their stable positions (failed
// slots hold the partially filled Result of that run).
func Compare(w workload.Workload, base Options, kinds []Kind) ([]Result, error) {
	jobs := parallel.Jobs()
	_, cloneable := w.(workload.Cloner)
	if !cloneable {
		// Setup mutates the workload, so a shared instance must run one
		// configuration at a time.
		jobs = 1
	}
	name := w.Name() // hoisted: the thunks must not touch the shared workload
	return parallel.MapN(jobs, kinds, func(_ int, k Kind) (Result, error) {
		defer obs.Span3("cell", name, k.String()).End()
		o := base
		o.Kind = k
		wk := workload.Clone(w)
		r, err := Run(wk, o)
		if err != nil {
			return r, fmt.Errorf("system: %s on %s: %w", k, name, err)
		}
		return r, nil
	})
}
