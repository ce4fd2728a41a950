// Package sdam is the public API of the SDAM reproduction: a simulated
// full system — 3D-stacked memory, SDAM memory controller (AMU + CMT),
// kernel chunk allocator, mapping-aware malloc, CPU/accelerator engines
// — plus the profiling and machine-learning machinery that selects
// per-variable address mappings, and the harness that regenerates every
// table and figure of the paper
//
//	Zhang, Swift, Li. "Software-Defined Address Mapping: A Case on 3D
//	Memory." ASPLOS 2022.
//
// Three levels of use:
//
//   - Machine: a hands-on simulated system. Allocate variables with
//     explicit address mappings, touch memory, and read the channel
//     utilization your mapping achieved (see examples/quickstart).
//
//   - RunBenchmark / Compare: run a workload (synthetic stride copy,
//     SPEC/PARSEC proxy, or one of the eight data-intensive kernels)
//     under any of the paper's six system configurations, with
//     profiling and ML-based mapping selection handled automatically.
//
//   - Experiments: regenerate a specific paper table or figure.
package sdam

import (
	"io"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Re-exported building blocks. Aliases keep the internal packages as the
// single source of truth while making the types nameable by API users.
type (
	// Geometry describes a 3D-memory device (channels × banks × rows).
	Geometry = geom.Geometry
	// Timing holds DRAM timing parameters in nanoseconds.
	Timing = hbm.Timing
	// VA is a simulated virtual address.
	VA = vm.VA
	// LineAddr is a cache-line-granularity physical address.
	LineAddr = geom.LineAddr
	// Kind names one of the paper's six system configurations.
	Kind = system.Kind
	// Options configures a benchmark run.
	Options = system.Options
	// Result reports a configured benchmark run.
	Result = system.Result
	// Workload is a benchmark program the engines can execute.
	Workload = workload.Workload
	// EngineConfig sizes a CPU or accelerator request engine.
	EngineConfig = cpu.Config
	// Selection is a mapping-selection outcome (per-variable mappings).
	Selection = cluster.Selection
	// Report is a regenerated paper table/figure.
	Report = experiments.Report
	// ProxyOptions scales a SPEC/PARSEC proxy application.
	ProxyOptions = workload.ProxyOptions
	// KernelOptions bounds a data-intensive kernel run.
	KernelOptions = apps.Options
)

// The six evaluated system configurations (paper §7.3).
const (
	BSDM     = system.BSDM     // fixed default mapping
	BSBSM    = system.BSBSM    // one profiled bit-shuffle mapping, global
	BSHM     = system.BSHM     // XOR-hash mapping, global
	SDMBSM   = system.SDMBSM   // SDAM, one mapping per application
	SDMBSMML = system.SDMBSMML // SDAM, per-variable via K-Means
	SDMBSMDL = system.SDMBSMDL // SDAM, per-variable via DL-assisted K-Means
)

// DefaultGeometry returns the prototype's 8 GB, 32-channel HBM2 device.
func DefaultGeometry() Geometry { return geom.Default() }

// DefaultTiming returns HBM2-class timing parameters.
func DefaultTiming() Timing { return hbm.DefaultTiming() }

// RunBenchmark executes one workload under one system configuration,
// including the offline profiling pass and mapping selection when the
// configuration calls for them.
func RunBenchmark(w Workload, opts Options) (Result, error) { return system.Run(w, opts) }

// Compare runs the workload under several configurations with shared
// settings and returns the results in order.
func Compare(w Workload, base Options, kinds []Kind) ([]Result, error) {
	return system.Compare(w, base, kinds)
}

// SetJobs caps how many simulation cells (workload × configuration ×
// sweep-point) run concurrently in Compare and the experiment sweeps,
// returning the previous cap. n <= 0 restores the default, GOMAXPROCS.
// Simulated results are bit-identical at any job count; only wall-clock
// time changes.
func SetJobs(n int) int { return parallel.SetJobs(n) }

// Jobs reports the current concurrency cap.
func Jobs() int { return parallel.Jobs() }

// Observability (see internal/obs and docs/OBSERVABILITY.md). The
// metrics layer is disabled by default and costs one atomic load per
// instrumented site while off; cmd/sdamsim and cmd/sdambench surface
// these through -metrics and -trace.

// MetricsSnapshot is a point-in-time serialization of every registered
// metric (schema obs.SnapshotSchema).
type MetricsSnapshot = obs.Snapshot

// EnableMetrics turns on the process-wide metric registry.
func EnableMetrics() { obs.EnableMetrics() }

// EnableTracing additionally retains every phase span for Chrome
// trace_event export (WriteTrace); open the result in Perfetto.
func EnableTracing() { obs.EnableTracing() }

// Metrics returns the current process-wide metrics snapshot.
func Metrics() MetricsSnapshot { return obs.Default.Snapshot() }

// WriteTrace writes the retained phase spans as Chrome trace_event
// JSON (https://ui.perfetto.dev opens it directly).
func WriteTrace(w io.Writer) error { return obs.Default.WriteTrace(w) }

// CoRun executes several workloads concurrently on one machine, each in
// its own address space, sharing the memory system and (under SDAM) the
// single 256-entry CMT — the paper's co-run scenario. Options.Clusters
// is the per-application mapping budget.
func CoRun(ws []Workload, opts Options) (Result, error) { return system.CoRun(ws, opts) }

// CPUEngine returns the prototype's 4-core (or n-core) BOOM-like CPU
// configuration.
func CPUEngine(cores int) EngineConfig { return cpu.CPUConfig(cores) }

// AcceleratorEngine returns the near-memory accelerator configuration.
func AcceleratorEngine(units int) EngineConfig { return cpu.AcceleratorConfig(units) }

// NewStrideCopy builds the synthetic strided data-copy workload (§7.2):
// one thread per stride entry, each copying through its own buffer.
func NewStrideCopy(strides []int, refsPerThread int, bufBytes uint64) Workload {
	return workload.NewStrideCopy(strides, refsPerThread, bufBytes)
}

// NewProxy builds the SPEC2006/PARSEC proxy application for a Table 1
// benchmark name (e.g. "mcf", "omnetpp", "streamcluster").
func NewProxy(name string, opts ProxyOptions) (Workload, error) {
	return workload.NewProxyByName(name, opts)
}

// ProxyNames lists the 19 Table 1 applications.
func ProxyNames() []string {
	out := make([]string, len(workload.Table1Targets))
	for i, t := range workload.Table1Targets {
		out[i] = t.Name
	}
	return out
}

// Data-intensive kernels (§7.2): graph processing, in-memory analytics,
// and ML/information retrieval.
func NewBFS(opts KernelOptions) Workload       { return apps.NewBFS(opts) }
func NewPageRank(opts KernelOptions) Workload  { return apps.NewPageRank(opts) }
func NewSSSP(opts KernelOptions) Workload      { return apps.NewSSSP(opts) }
func NewHashJoin(opts KernelOptions) Workload  { return apps.NewHashJoin(opts) }
func NewMergeJoin(opts KernelOptions) Workload { return apps.NewMergeJoin(opts) }
func NewKMeans(opts KernelOptions) Workload    { return apps.NewKMeansApp(opts) }
func NewHNSW(opts KernelOptions) Workload      { return apps.NewHNSW(opts) }
func NewIVFPQ(opts KernelOptions) Workload     { return apps.NewIVFPQ(opts) }

// Extension kernels beyond the paper's set: classic address-mapping
// stress cases (column traversal of row-major matrices; mixed-stride
// stencils with store-heavy traffic).
func NewTranspose(opts KernelOptions) Workload { return apps.NewTranspose(opts) }
func NewStencil(opts KernelOptions) Workload   { return apps.NewStencil(opts) }

// KernelNames lists the eight data-intensive kernels.
func KernelNames() []string {
	return []string{"bfs", "pagerank", "sssp", "hashjoin", "mergejoin", "kmeans", "hnsw", "ivfpq"}
}

// NewWorkloadByName builds any named benchmark: a data-intensive kernel
// (see KernelNames) or a Table 1 proxy (see ProxyNames), bounded to
// about refs references per run.
func NewWorkloadByName(name string, refs int) (Workload, error) {
	kopts := KernelOptions{MaxRefs: refs}
	switch name {
	case "bfs":
		return NewBFS(kopts), nil
	case "pagerank":
		return NewPageRank(kopts), nil
	case "sssp":
		return NewSSSP(kopts), nil
	case "hashjoin":
		return NewHashJoin(kopts), nil
	case "mergejoin":
		return NewMergeJoin(kopts), nil
	case "kmeans":
		return NewKMeans(kopts), nil
	case "hnsw":
		return NewHNSW(kopts), nil
	case "ivfpq":
		return NewIVFPQ(kopts), nil
	case "transpose":
		return NewTranspose(kopts), nil
	case "stencil":
		return NewStencil(kopts), nil
	default:
		return NewProxy(name, ProxyOptions{Refs: refs})
	}
}

// Trace is a recorded reference trace: the workload's variables plus
// every reference as (variable, offset) pairs, replayable under any
// system configuration.
type Trace = tracefile.File

// RecordTrace captures one run of a workload into a portable trace.
func RecordTrace(w Workload, seed int64) (*Trace, error) { return tracefile.Record(w, seed) }

// LoadTrace reads a trace written with Trace.Save.
func LoadTrace(r io.Reader) (*Trace, error) { return tracefile.Load(r) }

// Profiling and mapping-selection entry points (§6.2).

// Profile is a per-application profiling result: variables with
// reference counts, footprints, and bit-flip-rate vectors.
type Profile = profile.Profile

// DeltaTrace is the bounded (Δ, VID) sequence the DL selector trains on.
type DeltaTrace = []trace.DeltaSample

// DLOptions tunes the DL-assisted selector's training budget.
type DLOptions = cluster.DLOptions

// ProfileWorkload runs the offline profiling pass: execute the workload
// on the baseline system with the variable-attribution profiler attached.
func ProfileWorkload(w Workload, opts Options) (Profile, DeltaTrace, error) {
	p, col, err := system.Profile(w, opts)
	if err != nil {
		return Profile{}, nil, err
	}
	return p, col.Deltas(), nil
}

// LoadProfile reads a profile previously written with Profile.Save —
// the PGO-style artifact reuse flow of §6.2.
func LoadProfile(r io.Reader) (Profile, error) { return profile.Load(r) }

// SelectKMeans clusters the profile's major variables with K-Means and
// derives one mapping per cluster (the fast selector).
func SelectKMeans(p Profile, k int) (Selection, error) {
	return cluster.SelectKMeans(p, k, geom.Default(), cluster.Guarded)
}

// SelectKMeansAuto is SelectKMeans with the cluster count chosen
// automatically by silhouette score, up to maxK.
func SelectKMeansAuto(p Profile, maxK int) (Selection, error) {
	return cluster.SelectKMeansAuto(p, maxK, geom.Default())
}

// SelectDL runs the DL-assisted K-Means selector: an embedding-LSTM
// autoencoder trained with a joint reconstruction+clustering loss (the
// slow, higher-quality selector).
func SelectDL(p Profile, deltas DeltaTrace, k int, opts DLOptions) (Selection, error) {
	return cluster.SelectDL(p, deltas, k, geom.Default(), opts, cluster.Guarded)
}

// Experiments lists every paper table/figure regenerator (fig1…fig15,
// table1…table4).
func Experiments() []experiments.Runner { return experiments.All() }

// AblationExperiments lists this reproduction's extension experiments
// (chunk-size trade-off, CMT organization, cluster budget, MSHR sweep,
// selection-guard value, guard-row overhead).
func AblationExperiments() []experiments.Runner { return experiments.Ablations() }

// RunExperiment regenerates one table or figure by ID. quick trades
// fidelity for speed (the -short mode of the benches).
func RunExperiment(id string, quick bool) (*Report, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	scale := experiments.Full
	if quick {
		scale = experiments.Quick
	}
	defer obs.Span2("experiment", id).End()
	return r.Run(scale)
}

// UnknownExperimentError reports a bad experiment ID.
type UnknownExperimentError struct{ ID string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "sdam: unknown experiment " + e.ID + " (try fig1…fig15, table1…table4)"
}
